"""The DL electric-field solver (grey boxes of the paper's Fig. 2).

At every PIC cycle the solver (1) bins the particle phase space onto a
2D grid, (2) min-max normalizes the histogram with the statistics
*frozen at training time* (Eq. 5), and (3) evaluates the trained
network to predict the electric field on the 64 grid nodes.  No charge
deposition and no Poisson solve take place.

The solver is batch-native: an ensemble of runs hands it stacked
``(batch, n)`` phase spaces and the whole stage — binning, frozen
normalization, network evaluation — executes once per step for the
entire batch (:meth:`DLFieldSolver.fields`).  One fused ``bincount``
builds every histogram, one normalization pass rescales the stack, and
ONE network forward predicts all fields.  The single-run
:meth:`DLFieldSolver.field` is a batch-of-one view of the same path,
and the inference stack guarantees each batched row is bitwise
identical to the corresponding single run (see ``repro.nn.layers``).
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.nn.network import Sequential
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space_batch
from repro.phasespace.normalization import MinMaxNormalizer

_INPUT_KINDS = ("flat", "image")


class DLFieldSolver:
    """Predicts ``E`` on the grid from the particle phase space.

    Parameters
    ----------
    model:
        A trained network mapping normalized histograms to the field.
    ps_grid:
        Phase-space discretization used at training time (must match).
    normalizer:
        The min-max scaler fitted on the training inputs.
    input_kind:
        ``"flat"`` feeds histograms as ``(N, n_v*n_x)`` vectors (MLP);
        ``"image"`` as ``(N, 1, n_v, n_x)`` tensors (CNN).
    binning:
        Phase-space binning order, ``"ngp"`` (paper) or ``"cic"``.

    The object satisfies the ``FieldSolver`` protocol of
    ``repro.pic.simulation`` and plugs directly into the PIC cycle —
    natively batched (``supports_batch``), so an
    :class:`~repro.pic.simulation.EnsembleSimulation` drives it without
    any row-by-row lifting.
    """

    supports_batch = True

    def __init__(
        self,
        model: Sequential,
        ps_grid: PhaseSpaceGrid,
        normalizer: MinMaxNormalizer,
        input_kind: str = "flat",
        binning: str = "ngp",
    ) -> None:
        if input_kind not in _INPUT_KINDS:
            raise ValueError(f"unknown input_kind {input_kind!r}; expected one of {_INPUT_KINDS}")
        if not normalizer.fitted:
            raise ValueError("normalizer must be fitted before building a DLFieldSolver")
        self.model = model
        self.ps_grid = ps_grid
        self.normalizer = normalizer
        self.input_kind = input_kind
        self.binning = binning
        self.last_histograms: "np.ndarray | None" = None
        # The float32 serving tier: a deep copy of the model with the
        # weights cast down, built lazily on the first float32 call
        # (weights are frozen at serving time — call
        # :meth:`invalidate_float32_cache` after mutating them).
        self._model_f32: "Sequential | None" = None

    def invalidate_float32_cache(self) -> None:
        """Drop the float32 weight copy (call after mutating weights)."""
        self._model_f32 = None

    def _eval_model(self, dtype: np.dtype) -> Sequential:
        """The model matching an input dtype (float32 copy built lazily)."""
        if dtype != np.float32:
            return self.model
        if self._model_f32 is None:
            model = copy.deepcopy(self.model)
            for layer in model.layers:
                for key, value in layer.params.items():
                    layer.params[key] = value.astype(np.float32)
            self._model_f32 = model
        return self._model_f32

    @property
    def last_histogram(self) -> "np.ndarray | None":
        """Histogram of the most recent batch-of-one prediction.

        ``None`` before any prediction, and for true ensembles
        (``batch > 1``) — read :attr:`last_histograms` there.
        """
        if self.last_histograms is None or self.last_histograms.shape[0] != 1:
            return None
        return self.last_histograms[0]

    def prepare_inputs(self, histograms: np.ndarray) -> np.ndarray:
        """Normalize stacked histograms and shape them for the network.

        ``histograms`` is ``(batch, n_v, n_x)``; one normalization pass
        covers the whole stack.  Returns ``(batch, n_v*n_x)`` for
        ``"flat"`` models or ``(batch, 1, n_v, n_x)`` for ``"image"``.
        """
        histograms = np.asarray(histograms)
        if histograms.dtype != np.float32:
            histograms = np.asarray(histograms, dtype=np.float64)
        if histograms.ndim != 3 or histograms.shape[1:] != self.ps_grid.shape:
            raise ValueError(
                f"histograms {histograms.shape} do not match "
                f"(batch, {self.ps_grid.n_v}, {self.ps_grid.n_x})"
            )
        norm = self.normalizer.transform(histograms)
        if self.input_kind == "flat":
            return norm.reshape(histograms.shape[0], -1)
        return norm.reshape(histograms.shape[0], 1, *self.ps_grid.shape)

    def prepare_input(self, histogram: np.ndarray) -> np.ndarray:
        """Normalize a single histogram and shape it for the network."""
        histogram = np.asarray(histogram, dtype=np.float64)
        if histogram.shape != self.ps_grid.shape:
            raise ValueError(f"histogram {histogram.shape} does not match grid {self.ps_grid.shape}")
        return self.prepare_inputs(histogram[None])

    def predict_from_histograms(self, histograms: np.ndarray) -> np.ndarray:
        """One network forward over stacked raw histograms.

        float32 histograms are evaluated by the float32 weight copy
        (single-precision GEMMs end to end); anything else runs the
        float64 reference model unchanged.
        """
        prepared = self.prepare_inputs(histograms)
        return self._eval_model(prepared.dtype).predict(prepared)

    def predict_from_histogram(self, histogram: np.ndarray) -> np.ndarray:
        """Network prediction for one raw (unnormalized) histogram."""
        return self.model.predict(self.prepare_input(histogram))[0]

    def fields(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Predict every ensemble member's field in one fused pass.

        ``x`` and ``v`` are stacked ``(batch, n)`` phase spaces; the
        result is ``(batch, n_cells)``.  The entire DL field-solve
        stage — binning, normalization, network forward — runs once for
        the whole batch, and row ``b`` is bitwise identical to a
        single-run :meth:`field` call on ``(x[b], v[b])``.
        """
        hists = bin_phase_space_batch(x, v, self.ps_grid, order=self.binning, dtype=x.dtype)
        self.last_histograms = hists
        return self.predict_from_histograms(hists)

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``FieldSolver`` protocol entry point used by the PIC cycle.

        Accepts either a single ``(n,)`` phase space (returning
        ``(n_cells,)``) or a stacked ``(batch, n)`` ensemble (returning
        ``(batch, n_cells)``); the single-run form is a batch-of-one
        view of :meth:`fields`.
        """
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=x.dtype)
        if x.ndim == 2:
            return self.fields(x, v)
        return self.fields(x[None], v[None])[0]

    def fingerprint(self) -> str:
        """Content hash of the solver (architecture + weights + preprocessing).

        Two solvers with the same fingerprint predict identical fields
        for identical inputs, so the simulation service folds this into
        the result-store key of DL runs — results produced by one model
        can never be served for a request against another.
        """
        h = hashlib.sha256()
        h.update(json.dumps([repr(layer) for layer in self.model.layers]).encode("utf-8"))
        state = self.model.state_dict()
        for key in sorted(state):
            h.update(key.encode("utf-8"))
            h.update(np.ascontiguousarray(state[key]).tobytes())
        meta = {
            "input_kind": self.input_kind,
            "binning": self.binning,
            "normalizer": self.normalizer.to_dict(),
            "ps_grid": {
                "n_x": self.ps_grid.n_x,
                "n_v": self.ps_grid.n_v,
                "box_length": self.ps_grid.box_length,
                "v_min": self.ps_grid.v_min,
                "v_max": self.ps_grid.v_max,
            },
        }
        h.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
        return h.hexdigest()

    # -- persistence -----------------------------------------------------
    def save(self, directory: "str | Path") -> Path:
        """Write ``model.npz`` + ``solver.json`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.model.save(directory / "model.npz")
        meta = {
            "input_kind": self.input_kind,
            "binning": self.binning,
            "normalizer": self.normalizer.to_dict(),
            "ps_grid": {
                "n_x": self.ps_grid.n_x,
                "n_v": self.ps_grid.n_v,
                "box_length": self.ps_grid.box_length,
                "v_min": self.ps_grid.v_min,
                "v_max": self.ps_grid.v_max,
            },
        }
        (directory / "solver.json").write_text(json.dumps(meta, indent=2))
        return directory

    @classmethod
    def load(cls, directory: "str | Path", model: Sequential) -> "DLFieldSolver":
        """Rebuild a solver; ``model`` must have the saved architecture.

        The caller constructs the (untrained) architecture — e.g. via
        ``repro.models.build_mlp`` — and this method loads the weights
        and the frozen preprocessing state into it.
        """
        directory = Path(directory)
        meta = json.loads((directory / "solver.json").read_text())
        model.load(directory / "model.npz")
        return cls(
            model=model,
            ps_grid=PhaseSpaceGrid(**meta["ps_grid"]),
            normalizer=MinMaxNormalizer.from_dict(meta["normalizer"]),
            input_kind=meta["input_kind"],
            binning=meta["binning"],
        )

    @classmethod
    def load_auto(cls, directory: "str | Path") -> "DLFieldSolver":
        """Rebuild a solver from a saved directory or registry reference.

        Unlike :meth:`load` no pre-built architecture is needed: the
        checkpoint's layer fingerprint reconstructs the network
        (:meth:`Sequential.from_saved`).  This is what lets the CLI run
        ``repro sweep --solver dl --model-dir <dir>`` against any saved
        solver.  ``registry:<fingerprint-prefix>`` (and
        ``registry:<root>:<prefix>``) references resolve through the
        content-addressed model registry (:mod:`repro.registry`) — and
        because every ``model_dir`` consumer funnels through this
        method, registry refs work identically for the CLI, an
        in-process service and spawned executor workers.
        """
        if str(directory).startswith("registry:"):
            # Lazy import: the registry depends on this module.
            from repro.registry import resolve_model_dir

            directory = resolve_model_dir(directory)
        directory = Path(directory)
        return cls.load(directory, Sequential.from_saved(directory / "model.npz"))
