"""Fault-tolerant campaign orchestration.

A *campaign* runs the stack's stages — generate → fuzz — as one
checkpointed, resumable, budgeted run; see
:mod:`repro.campaign.orchestrator` for the control model and ``python -m
repro.campaign --help`` for the CLI.
"""
