"""Decentralized classification over agent graphs.

Locally trained classifiers produce debiased logit statistics that are
diffused through a social-learning recursion during a streaming prediction
phase; the theory module turns the matching consistency guarantees into
executable formulas.
"""
