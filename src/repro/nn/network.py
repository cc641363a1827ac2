"""``Sequential`` model container with npz checkpointing."""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.nn.layers import Layer

# Layer constructors a checkpoint fingerprint may name (Sequential.from_saved).
_FINGERPRINT_LAYERS = ("Dense", "ReLU", "Tanh", "Sigmoid", "Flatten", "Conv2D", "MaxPool2D")


def _layer_from_fingerprint(text: str) -> Layer:
    """Instantiate a whitelisted layer from its ``repr`` string.

    Accepts exactly one call of a registry layer with literal
    positional/keyword arguments (``Dense(128, 64)``,
    ``Conv2D(1, 16, kernel_size=(3, 3), padding='same')``); anything
    else — attribute access, nested calls, names as arguments — is
    rejected, so untrusted checkpoints cannot smuggle code through the
    fingerprint.
    """
    from repro.nn import layers as _layers

    node = ast.parse(text, mode="eval").body
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        raise ValueError(f"fingerprint is not a plain layer call: {text!r}")
    if node.func.id not in _FINGERPRINT_LAYERS:
        raise ValueError(f"layer {node.func.id!r} is not reconstructable from a fingerprint")
    args = [ast.literal_eval(arg) for arg in node.args]
    kwargs = {kw.arg: ast.literal_eval(kw.value) for kw in node.keywords if kw.arg is not None}
    return getattr(_layers, node.func.id)(*args, **kwargs)


class Sequential:
    """A plain feed-forward stack of :class:`Layer` objects.

    >>> model = Sequential([Dense(4, 8, rng=0), ReLU(), Dense(8, 2, rng=1)])
    >>> y = model.forward(x)                         # doctest: +SKIP
    >>> model.backward(grad_y)                       # doctest: +SKIP
    """

    def __init__(self, layers: "Sequence[Layer] | None" = None) -> None:
        self.layers: list[Layer] = list(layers) if layers is not None else []
        for layer in self.layers:
            self._check_layer(layer)

    @staticmethod
    def _check_layer(layer: Layer) -> None:
        if not isinstance(layer, Layer):
            raise TypeError(f"expected a Layer, got {type(layer).__name__}")

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer; returns self for chaining."""
        self._check_layer(layer)
        self.layers.append(layer)
        return self

    # -- forward / backward --------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack."""
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate through the stack (reverse order)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference in evaluation mode, batched to bound memory.

        Chunks are written straight into one preallocated output array
        (sized from the first chunk) instead of the list-append +
        concatenate pattern, so large predictions cost one output
        allocation and no final copy.  float32 inputs stay float32 end
        to end (the serving tier); anything else is coerced to float64
        exactly as before.
        """
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=np.float64)
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        n = x.shape[0]
        if n <= batch_size:
            return self.forward(x, training=False)
        first = self.forward(x[:batch_size], training=False)
        out = np.empty((n, *first.shape[1:]), dtype=first.dtype)
        out[:batch_size] = first
        for i in range(batch_size, n, batch_size):
            out[i : i + batch_size] = self.forward(x[i : i + batch_size], training=False)
        return out

    # -- parameters ------------------------------------------------------
    def param_grad_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Stable-ordered (parameter, gradient) array pairs for optimizers."""
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            for name in sorted(layer.params):
                pairs.append((layer.params[name], layer.grads[name]))
        return pairs

    def zero_grad(self) -> None:
        """Reset every accumulated gradient to zero."""
        for layer in self.layers:
            layer.zero_grad()

    @property
    def n_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(layer.n_parameters for layer in self.layers)

    def summary(self) -> str:
        """Human-readable architecture listing."""
        lines = [f"Sequential with {len(self.layers)} layers, {self.n_parameters:,} parameters"]
        for i, layer in enumerate(self.layers):
            lines.append(f"  [{i:2d}] {layer!r:60s} params={layer.n_parameters:,}")
        return "\n".join(lines)

    # -- persistence -----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping ``"{layer_index}.{param_name}" -> array``."""
        state: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                state[f"{i}.{name}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy arrays into the existing parameters (shape-checked)."""
        expected = self.state_dict()
        missing = sorted(set(expected) - set(state))
        extra = sorted(set(state) - set(expected))
        if missing or extra:
            raise ValueError(f"state mismatch: missing={missing}, unexpected={extra}")
        for key, current in expected.items():
            new = np.asarray(state[key], dtype=np.float64)
            if new.shape != current.shape:
                raise ValueError(f"shape mismatch for {key}: {new.shape} vs {current.shape}")
            current[...] = new

    def save(self, path: "str | Path") -> Path:
        """Serialize parameters (and a layer fingerprint) to ``.npz``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arch = json.dumps([repr(layer) for layer in self.layers])
        arrays = {k: v for k, v in self.state_dict().items()}
        arrays["__architecture__"] = np.frombuffer(arch.encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        return path

    def load(self, path: "str | Path") -> "Sequential":
        """Load parameters saved by :meth:`save` into this model."""
        with np.load(Path(path), allow_pickle=False) as archive:
            state = {k: archive[k] for k in archive.files if k != "__architecture__"}
        self.load_state_dict(state)
        return self

    @classmethod
    def from_saved(cls, path: "str | Path") -> "Sequential":
        """Rebuild architecture *and* weights from a :meth:`save` file.

        The checkpoint's layer fingerprint (the ``repr`` of every
        layer) is parsed — never evaluated — against a whitelist of
        layer constructors with literal arguments, then the saved
        parameters are loaded into the rebuilt stack.  A checkpoint is
        data, not code: like the ``allow_pickle=False`` loads, a
        hostile ``model.npz`` must not be able to run anything.  Works
        for every layer whose ``repr`` round-trips (Dense, activations,
        Flatten, Conv2D, MaxPool2D); layers that do not (e.g. Dropout)
        raise with a pointer to constructing the model explicitly.
        """
        path = Path(path)
        with np.load(path, allow_pickle=False) as archive:
            if "__architecture__" not in archive.files:
                raise ValueError(f"{path} has no architecture fingerprint")
            reprs = json.loads(bytes(archive["__architecture__"]).decode("utf-8"))
        stack: list[Layer] = []
        for text in reprs:
            try:
                stack.append(_layer_from_fingerprint(text))
            except Exception as exc:
                raise ValueError(
                    f"cannot rebuild layer from fingerprint {text!r}; construct the "
                    "architecture explicitly and use load() instead"
                ) from exc
        return cls(stack).load(path)
