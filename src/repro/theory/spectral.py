"""Spectral analysis of DL field-solver errors.

Section VII of the paper: "More studies, such as spectral analysis of
errors in the electric field values, are needed to gain more insight
into the DL-based PIC methods."  This module implements that study:
given predicted and reference fields it decomposes the error by Fourier
mode, revealing whether the network fails on the physically dominant
long wavelengths or on the noise-carrying short ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines.observables import mode_spectrum


@dataclass(frozen=True)
class ErrorSpectrum:
    """Per-mode decomposition of a field-prediction error.

    Attributes
    ----------
    modes:
        Mode numbers ``0..n//2``.
    error_amplitude:
        RMS (over samples) amplitude of each mode of ``pred - truth``.
    signal_amplitude:
        RMS amplitude of each mode of ``truth``.
    """

    modes: np.ndarray
    error_amplitude: np.ndarray
    signal_amplitude: np.ndarray

    @property
    def relative(self) -> np.ndarray:
        """Per-mode error-to-signal ratio (inf where the signal is 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.error_amplitude / self.signal_amplitude

    @property
    def dominant_error_mode(self) -> int:
        """Mode number carrying the largest absolute error."""
        return int(np.argmax(self.error_amplitude))

    def low_k_fraction(self, cutoff: int = 4) -> float:
        """Fraction of total error energy in modes ``1..cutoff``.

        Distinguishes 'the network misses the physics' (low-k error)
        from 'the network reproduces binning noise' (high-k error).
        """
        if cutoff < 1 or cutoff >= self.modes.size:
            raise ValueError(f"cutoff {cutoff} out of range (1..{self.modes.size - 1})")
        energy = self.error_amplitude**2
        total = energy[1:].sum()
        if total == 0:
            return 0.0
        return float(energy[1 : cutoff + 1].sum() / total)


def field_error_spectrum(
    predictions: np.ndarray, targets: np.ndarray
) -> ErrorSpectrum:
    """Decompose prediction errors by Fourier mode, RMS over samples.

    ``predictions`` and ``targets`` are ``(n_samples, n_cells)`` (a
    single pair of 1D fields is also accepted).
    """
    pred = np.atleast_2d(np.asarray(predictions, dtype=np.float64))
    true = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if pred.shape != true.shape:
        raise ValueError(f"predictions {pred.shape} and targets {true.shape} differ")
    if pred.shape[0] == 0 or pred.shape[1] < 2:
        raise ValueError(f"need at least one sample of >= 2 cells, got {pred.shape}")
    err_spectra = np.stack([mode_spectrum(row) for row in pred - true])
    sig_spectra = np.stack([mode_spectrum(row) for row in true])
    return ErrorSpectrum(
        modes=np.arange(err_spectra.shape[1]),
        error_amplitude=np.sqrt(np.mean(err_spectra**2, axis=0)),
        signal_amplitude=np.sqrt(np.mean(sig_spectra**2, axis=0)),
    )


def solver_error_spectrum(solver, dataset) -> ErrorSpectrum:
    """Error spectrum of a trained ``DLFieldSolver`` on a ``FieldDataset``."""
    raw = dataset.flat_inputs() if solver.input_kind == "flat" else dataset.image_inputs()
    pred = solver.model.predict(solver.normalizer.transform(raw))
    return field_error_spectrum(pred, dataset.targets)
