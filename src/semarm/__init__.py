"""Semantic association rule mining for IoT sensor data.

The pipeline aggregates time-stamped sensor readings into transactions,
optionally enriches them with property-graph semantics, trains an
under-complete denoising autoencoder on the one-hot encoding, and extracts
association rules from the trained network with marked test vectors. An
exhaustive miner and exact quality metrics round out the toolkit.
"""

__version__ = "0.1.0"
