"""Trace-driven planner and simulator for expert-parallel MoE load balancing."""
