"""Under-complete denoising autoencoder over one-hot transactions.

Three tanh encoder layers, three decoder layers with softmax applied
independently within each feature's slot group, trained to reconstruct the
clean input from a Gaussian-corrupted copy under aggregated binary
cross-entropy, with Adam and decoupled weight decay. All arithmetic is
float64 and fully deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .transact import EncodedMatrix, GroupLayout

__all__ = [
    "TrainingConfig",
    "NetworkShape",
    "TrainedAutoencoder",
    "initialize_network",
    "bce_loss",
    "loss_gradients",
    "train",
    "model_to_doc",
    "model_from_doc",
    "save_model",
    "load_model",
]

CLAMP_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 5e-3
    epochs: int = 5
    weight_decay: float = 2e-8
    noise_factor: float = 0.5
    batch_size: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "noise_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.noise_factor < 0:
            raise ValueError("noise_factor must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths plus the feature slot layout of the input encoding.

    The encoder and decoder have three layers each; the encoder's last width
    is the code size and must be strictly below the input dimension."""

    input_dim: int
    encoder_dims: tuple[int, int, int]
    decoder_dims: tuple[int, int, int]
    group_layout: GroupLayout

    def __post_init__(self):
        if len(self.encoder_dims) != 3 or len(self.decoder_dims) != 3:
            raise ValueError("encoder and decoder must have exactly 3 layers")
        if self.group_layout.width != self.input_dim:
            raise ValueError("group layout width does not match input_dim")
        if self.decoder_dims[-1] != self.input_dim:
            raise ValueError("decoder must end at input_dim")
        if self.code_size >= self.input_dim:
            raise ValueError(
                f"code size {self.code_size} must be below input_dim {self.input_dim}"
            )
        if any(d < 1 for d in self.encoder_dims + self.decoder_dims):
            raise ValueError("layer widths must be positive")

    @property
    def code_size(self) -> int:
        return self.encoder_dims[-1]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.encoder_dims, *self.decoder_dims)

    @classmethod
    def default_for(cls, layout: GroupLayout) -> "NetworkShape":
        """Width defaults that scale with the input: d/2, d/4, max(2, d/8)
        (ceilings), decoder mirrored back up to d."""
        d = layout.width
        enc = (math.ceil(d / 2), math.ceil(d / 4), max(2, math.ceil(d / 8)))
        dec = (enc[1], enc[0], d)
        return cls(d, enc, dec, layout)


@dataclass(eq=False)
class TrainedAutoencoder:
    """Immutable-after-training network: per-layer weights/biases plus the
    shape, the training config snapshot, and the seed that produced it."""

    shape: NetworkShape
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: TrainingConfig
    rng_seed: int
    final_loss: float | None = None

    def __post_init__(self):
        dims = self.shape.layer_dims
        if len(self.weights) != 6 or len(self.biases) != 6:
            raise ValueError("expected 6 weight and 6 bias tensors")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} parameter shape mismatch")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")

    def forward(self, x) -> np.ndarray:
        """Reconstruction probabilities for one input vector.

        Hidden layers apply tanh; the final pre-activation is split by the
        feature layout and softmax-normalized within each group, so each
        feature's slots sum to 1."""
        batch = self._checked_input(x, ndim=1)[None, :]
        return _activations(self.weights, self.biases, self.shape.group_layout, batch)[1][0]

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = self._checked_input(batch, ndim=2)
        return _activations(self.weights, self.biases, self.shape.group_layout, batch)[1]

    def _checked_input(self, x, ndim: int) -> np.ndarray:
        """``x`` as float64 with ``ndim`` axes, the last of input width, all finite."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != ndim or x.shape[-1] != self.shape.input_dim:
            raise ValueError(f"expected input {ndim}-d with width {self.shape.input_dim}")
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite values")
        return x


def _group_softmax(z: np.ndarray, layout: GroupLayout) -> np.ndarray:
    starts = np.asarray(layout.offsets)
    counts = np.asarray(layout.class_counts)
    shifted = z - np.repeat(np.maximum.reduceat(z, starts, axis=1), counts, axis=1)
    e = np.exp(shifted)
    return e / np.repeat(np.add.reduceat(e, starts, axis=1), counts, axis=1)


def _activations(weights, biases, layout, batch):
    """All layer activations: [input, 5 tanh layers] plus softmax output."""
    acts = [batch]
    for layer in range(5):
        acts.append(np.tanh(acts[-1] @ weights[layer] + biases[layer]))
    out = _group_softmax(acts[-1] @ weights[5] + biases[5], layout)
    return acts, out


def bce_loss(reconstruction, clean_target) -> float:
    """Mean binary cross-entropy over all slots.

    Reconstruction entries are clamped to [1e-12, 1 - 1e-12] before the logs,
    so exact {0,1} reconstructions of a {0,1} target give (near) zero loss.
    """
    p = np.asarray(reconstruction, dtype=np.float64)
    y = np.asarray(clean_target, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    p = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _loss_and_grads(weights, biases, layout, noisy, clean):
    """Loss plus exact gradients of bce_loss(forward(noisy), clean)."""
    acts, p = _activations(weights, biases, layout, noisy)
    loss = bce_loss(p, clean)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)

    n_terms = clean.size
    dp = (-(clean / pc) + (1.0 - clean) / (1.0 - pc)) / n_terms
    # softmax backward, independently per feature group
    starts = np.asarray(layout.offsets)
    counts = np.asarray(layout.class_counts)
    inner = np.repeat(np.add.reduceat(dp * p, starts, axis=1), counts, axis=1)
    delta = p * (dp - inner)

    grads_w = [None] * 6
    grads_b = [None] * 6
    grads_w[5] = acts[5].T @ delta
    grads_b[5] = delta.sum(axis=0)
    upstream = delta @ weights[5].T
    for layer in range(4, -1, -1):
        dz = upstream * (1.0 - acts[layer + 1] ** 2)
        grads_w[layer] = acts[layer].T @ dz
        grads_b[layer] = dz.sum(axis=0)
        upstream = dz @ weights[layer].T
    return loss, grads_w, grads_b


def loss_gradients(net: TrainedAutoencoder, inputs, targets):
    """Analytic gradients of bce_loss(forward(inputs), targets) with respect
    to every weight and bias tensor. Returns (loss, grad_weights, grad_biases).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if inputs.shape != targets.shape or inputs.shape[1] != net.shape.input_dim:
        raise ValueError("inputs/targets must both be (n, input_dim)")
    return _loss_and_grads(net.weights, net.biases, net.shape.group_layout, inputs, targets)


def _initial_parameters(shape: NetworkShape, rng: np.random.Generator):
    """uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and zero biases."""
    dims = shape.layer_dims
    weights, biases = [], []
    for i in range(6):
        bound = 1.0 / math.sqrt(dims[i])
        weights.append(rng.uniform(-bound, bound, size=(dims[i], dims[i + 1])))
        biases.append(np.zeros(dims[i + 1]))
    return weights, biases


def initialize_network(
    shape: NetworkShape,
    seed: int,
    config: TrainingConfig | None = None,
) -> TrainedAutoencoder:
    """Untrained network, initialised from a generator seeded with ``seed``."""
    weights, biases = _initial_parameters(shape, np.random.default_rng(seed))
    cfg = config if config is not None else TrainingConfig(rng_seed=seed)
    return TrainedAutoencoder(shape, weights, biases, cfg, seed)


def train(
    matrix: EncodedMatrix,
    shape: NetworkShape | None = None,
    config: TrainingConfig | None = None,
) -> TrainedAutoencoder:
    """Denoising training over the encoded transactions.

    Each epoch shuffles the rows; every mini-batch is corrupted with
    zero-mean Gaussian noise (sigma = noise_factor) clamped to [0, 1], pushed
    forward, scored with bce_loss against the clean batch, and updated with
    Adam plus decoupled weight decay. Deterministic for a fixed rng_seed; the
    returned network records the final epoch's mean loss.
    """
    if matrix.n_rows == 0:
        raise ValueError("cannot train on an empty matrix")
    if config is None:
        config = TrainingConfig()
    if shape is None:
        shape = NetworkShape.default_for(matrix.layout)
    if shape.group_layout != matrix.layout:
        raise ValueError("network layout does not match the encoded matrix")

    rng = np.random.default_rng(config.rng_seed)
    weights, biases = _initial_parameters(shape, rng)
    # Adam updates one flat vector; the layer arrays are views into it.
    params = np.concatenate([t.ravel() for t in weights + biases])
    chunks = np.split(params, np.cumsum([t.size for t in weights + biases])[:-1])
    weights = [c.reshape(t.shape) for c, t in zip(chunks[:6], weights)]
    biases = chunks[6:]
    m, v = np.zeros_like(params), np.zeros_like(params)
    step = 0
    data = matrix.data
    n = matrix.n_rows
    epoch_loss = math.nan

    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            clean = data[idx]
            noisy = np.clip(clean + rng.normal(0.0, config.noise_factor, clean.shape), 0.0, 1.0)
            loss, grads_w, grads_b = _loss_and_grads(weights, biases, shape.group_layout, noisy, clean)
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite training loss at step {step + 1}: {loss}")
            step += 1
            grad = np.concatenate([g.ravel() for g in grads_w + grads_b])
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if config.weight_decay:
                params -= config.learning_rate * config.weight_decay * params
            loss_sum += loss * len(idx)
        epoch_loss = loss_sum / n

    return TrainedAutoencoder(shape, weights, biases, config, config.rng_seed, epoch_loss)


def model_to_doc(net: TrainedAutoencoder) -> dict:
    return {
        "input_dim": net.shape.input_dim,
        "encoder_dims": list(net.shape.encoder_dims),
        "decoder_dims": list(net.shape.decoder_dims),
        "class_counts": list(net.shape.group_layout.class_counts),
        "config": asdict(net.config),
        "rng_seed": net.rng_seed,
        "final_loss": net.final_loss,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _is_number(value) -> bool:
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


_INTEGER = (lambda v: type(v) is int, "an integer")
_INTEGERS = (lambda v: type(v) is list and all(type(i) is int for i in v), "an array of integers")
# The JSON type of each entry of a model document other than the parameter
# arrays and, by its field's annotation, of each entry of its training config.
_DOC_TYPES = {
    "input_dim": _INTEGER, "encoder_dims": _INTEGERS, "decoder_dims": _INTEGERS,
    "class_counts": _INTEGERS, "rng_seed": _INTEGER,
    "final_loss": (lambda v: v is None or _is_number(v), "a number or null"),
}
_CONFIG_TYPES = {"int": _INTEGER, "float": (_is_number, "a number")}


def _float_arrays(doc: dict, key: str) -> list[np.ndarray]:
    try:
        return [np.asarray(a, dtype=np.float64) for a in doc[key]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model '{key}' must be an array of arrays of numbers") from exc


def model_from_doc(doc: dict) -> TrainedAutoencoder:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    config = doc["config"]
    if not isinstance(config, dict) or not config.keys() <= {f.name for f in fields(TrainingConfig)}:
        raise ValueError("model config must be an object of TrainingConfig fields")
    for field in fields(TrainingConfig):
        accepts, noun = _CONFIG_TYPES[field.type]
        if field.name in config and not accepts(config[field.name]):
            raise ValueError(f"model config '{field.name}' must be {noun}")
    for key, (accepts, noun) in _DOC_TYPES.items():
        if not accepts(doc.get(key)):
            raise ValueError(f"model '{key}' must be {noun}")
    shape = NetworkShape(
        input_dim=doc["input_dim"],
        encoder_dims=tuple(doc["encoder_dims"]),
        decoder_dims=tuple(doc["decoder_dims"]),
        group_layout=GroupLayout(tuple(doc["class_counts"])),
    )
    return TrainedAutoencoder(
        shape,
        _float_arrays(doc, "weights"),
        _float_arrays(doc, "biases"),
        TrainingConfig(**config),
        doc["rng_seed"],
        doc.get("final_loss"),
    )


def save_model(net: TrainedAutoencoder, path):
    """Write the network as a self-describing JSON document. JSON float
    round-tripping is exact, so load_model reproduces forward outputs
    bit-identically."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_doc(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedAutoencoder:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_doc(json.load(fh))
