"""Experiment drivers reproducing the paper's figures and tables."""
