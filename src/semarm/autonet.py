"""Under-complete denoising autoencoder over one-hot transactions.

Three tanh encoder layers, three decoder layers with softmax applied
independently within each feature's slot group, trained to reconstruct the
clean input from a Gaussian-corrupted copy under aggregated binary
cross-entropy, with Adam and decoupled weight decay. All arithmetic is
float64 and fully deterministic for a fixed seed. Parameters, gradients and
Adam's moments are flat vectors that a training step updates in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import jsondoc
from .transact import EncodedMatrix, GroupLayout

__all__ = [
    "TrainingConfig",
    "NetworkShape",
    "TrainedAutoencoder",
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
PROBE_BLOCK = 64  # rows per network pass of forward: any width fills whole SIMD lanes


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
    shape, the training config snapshot, the seed that produced it, and its
    epochs' mean losses (a loaded network keeps only the last)."""

    shape: NetworkShape
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: TrainingConfig
    rng_seed: int
    final_loss: float | None = None
    epoch_losses: tuple[float, ...] = ()

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
        """Reconstruction probabilities for one input vector, bit for bit its
        row of any ``forward_batch``.

        Hidden layers apply tanh; the final pre-activation is split by the
        feature layout and softmax-normalized within each group, so each
        feature's slots sum to 1."""
        return self._outputs(x, ndim=1)

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        return self._outputs(batch, ndim=2)

    def _outputs(self, x, ndim: int) -> np.ndarray:
        """The outputs for ``x``: ``ndim`` axes, the last of input width, all
        finite. Rows pass the network in zero-padded blocks of ``PROBE_BLOCK``,
        so a row's output bits do not depend on where it sits."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != ndim or x.shape[-1] != self.shape.input_dim:
            raise ValueError(f"expected input {ndim}-d with width {self.shape.input_dim}")
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite values")
        rows = x.reshape(-1, x.shape[-1])
        out = np.pad(rows, ((0, -len(rows) % PROBE_BLOCK), (0, 0)))
        for start in range(0, len(out), PROBE_BLOCK):
            block = out[start : start + PROBE_BLOCK]
            block[:] = _activations(self.weights, self.biases, self.shape.group_layout, block)[1]
        return out[: len(rows)].reshape(x.shape)


def _group_softmax(z: np.ndarray, layout: GroupLayout) -> np.ndarray:
    """``z`` softmax-normalized within each feature's slot group, in place."""
    z -= np.repeat(np.maximum.reduceat(z, layout.offsets, axis=1), layout.class_counts, axis=1)
    np.exp(z, out=z)
    z /= np.repeat(np.add.reduceat(z, layout.offsets, axis=1), layout.class_counts, axis=1)
    return z


def _activations(weights, biases, layout, batch):
    """[input, 5 tanh layers] and the softmax output, each made in its fresh matmul output."""
    acts = [batch]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w
        z += b
        acts.append(np.tanh(z, out=z) if layer < 5 else _group_softmax(z, layout))
    return acts[:-1], acts[-1]


def _backprop(tensors, grads, layout, noisy, clean) -> float:
    """Mean binary cross-entropy of the reconstruction of ``noisy`` against ``clean``, each
    probability clamped to [1e-12, 1 - 1e-12]; writes its exact gradients with respect to
    the 6 weight and 6 bias ``tensors`` into ``grads``, in the same order."""
    acts, p = _activations(tensors[:6], tensors[6:], layout, noisy)
    pc = np.minimum(np.maximum(p, CLAMP_EPS), 1.0 - CLAMP_EPS)
    clean_off, pc_off = 1.0 - clean, 1.0 - pc
    dp = clean_off / pc_off
    terms = np.log(pc) * clean
    terms += np.multiply(np.log(pc_off, out=pc_off), clean_off, out=pc_off)
    loss = -float(np.add.reduce(terms, axis=None)) / clean.size
    dp -= np.divide(clean, pc, out=pc)
    dp /= clean.size
    # softmax backward, independently per feature group
    inner = np.add.reduceat(np.multiply(dp, p, out=pc), layout.offsets, axis=1)
    dp -= np.repeat(inner, layout.class_counts, axis=1)
    delta = np.multiply(dp, p, out=dp)
    for layer in range(5, -1, -1):
        np.matmul(acts[layer].T, delta, out=grads[layer])
        np.add.reduce(delta, axis=0, out=grads[6 + layer])
        if layer:  # the input layer needs no upstream gradient
            slope = np.square(acts[layer], out=acts[layer])  # the tanh output is spent
            delta = delta @ tensors[layer].T
            delta *= np.subtract(1.0, slope, out=slope)
    return loss


def _initial_parameters(shape: NetworkShape, rng: np.random.Generator):
    """uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and zero biases."""
    dims = shape.layer_dims
    weights, biases = [], []
    for i in range(6):
        bound = 1.0 / math.sqrt(dims[i])
        weights.append(rng.uniform(-bound, bound, size=(dims[i], dims[i + 1])))
        biases.append(np.zeros(dims[i + 1]))
    return weights, biases


def train(
    matrix: EncodedMatrix,
    shape: NetworkShape | None = None,
    config: TrainingConfig | None = None,
) -> TrainedAutoencoder:
    """Denoising training over the encoded transactions.

    Each epoch shuffles the rows; every mini-batch is corrupted with
    zero-mean Gaussian noise (sigma = noise_factor) clamped to [0, 1], pushed
    forward, scored with binary cross-entropy against the clean batch, and
    updated with Adam plus decoupled weight decay. Deterministic for a fixed
    rng_seed; the returned network records each epoch's mean loss.
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
    # Parameters, gradients and Adam's moments are flat vectors laid out as weights then biases,
    # by layer; tensors and grads are views of the first two; scratch and root serve Adam's step.
    params = np.concatenate([t.ravel() for t in weights + biases])
    grad, m, v, scratch, root = (np.zeros_like(params) for _ in range(5))
    bounds = np.cumsum([t.size for t in weights + biases])[:-1]
    tensors, grads = ([c.reshape(t.shape) for c, t in zip(np.split(flat, bounds), weights + biases)]
                      for flat in (params, grad))
    step = 0
    n = matrix.n_rows
    epoch_losses = []

    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            clean = matrix.data[idx]
            noisy = rng.normal(0.0, config.noise_factor, clean.shape)
            np.minimum(np.maximum(np.add(noisy, clean, out=noisy), 0.0, out=noisy), 1.0, out=noisy)
            loss = _backprop(tensors, grads, shape.group_layout, noisy, clean)
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite training loss at step {step + 1}: {loss}")
            step += 1
            m *= ADAM_BETA1
            m += np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch), grad, out=scratch)
            np.divide(m, 1.0 - ADAM_BETA1**step, out=scratch)  # m_hat
            scratch *= config.learning_rate
            np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**step, out=root), out=root)  # sqrt(v_hat)
            root += ADAM_EPS
            params -= np.divide(scratch, root, out=scratch)
            if config.weight_decay:
                params -= np.multiply(params, config.learning_rate * config.weight_decay,
                                      out=scratch)
            loss_sum += loss * len(idx)
        epoch_losses.append(loss_sum / n)

    return TrainedAutoencoder(shape, tensors[:6], tensors[6:], config, config.rng_seed,
                              epoch_losses[-1], tuple(epoch_losses))


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


_VECTOR = jsondoc.array_of(jsondoc.NUMBER, "an array of numbers")
_ROWS = jsondoc.array_of(_VECTOR, "an array of arrays of numbers")
_MATRIX = jsondoc.Kind(lambda v: _ROWS.accepts(v) and len(set(map(len, v))) < 2,
                       "an array of equal-length arrays of numbers")
_LOSS = jsondoc.Kind(lambda v: v is None or jsondoc.NUMBER.accepts(v), "a number or null")


def model_from_doc(doc: dict) -> TrainedAutoencoder:
    """The network of a model document, each entry checked to be of its JSON kind."""

    def get(key: str, kind: jsondoc.Kind):
        return jsondoc.entry(doc, key, kind, "model")

    def parameters(key: str, kind: jsondoc.Kind) -> list[np.ndarray]:
        return [np.asarray(jsondoc.checked(a, kind, f"model '{key}' {i}"), dtype=np.float64)
                for i, a in enumerate(get(key, jsondoc.ARRAY))]

    jsondoc.checked(doc, jsondoc.OBJECT, "model")
    config = get("config", jsondoc.OBJECT)
    if not config.keys() <= {f.name for f in fields(TrainingConfig)}:
        raise ValueError("model config must be an object of TrainingConfig fields")
    for field in fields(TrainingConfig):
        if field.name in config:
            kind = jsondoc.INTEGER if field.type == "int" else jsondoc.NUMBER
            jsondoc.entry(config, field.name, kind, "model config")
    shape = NetworkShape(
        input_dim=get("input_dim", jsondoc.INTEGER),
        encoder_dims=tuple(get("encoder_dims", jsondoc.INTEGERS)),
        decoder_dims=tuple(get("decoder_dims", jsondoc.INTEGERS)),
        group_layout=GroupLayout(tuple(get("class_counts", jsondoc.INTEGERS))),
    )
    return TrainedAutoencoder(
        shape,
        parameters("weights", _MATRIX),
        parameters("biases", _VECTOR),
        TrainingConfig(**config),
        get("rng_seed", jsondoc.INTEGER),
        jsondoc.checked(doc.get("final_loss"), _LOSS, "model 'final_loss'"),
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
        return model_from_doc(jsondoc.load(fh, f"model {path}"))
