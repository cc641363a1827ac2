"""Noise-free 1D1V Vlasov-Poisson reference solver.

The paper's Sec. VII: "more accurate training data sets can be obtained
by running Vlasov codes that are not affected by the PIC numerical
noise."  This subpackage implements that future-work item: a
semi-Lagrangian (Cheng-Knorr split) Vlasov-Poisson solver on a fixed
phase-space grid, its batch-native :class:`VlasovEnsemble` engine, and
:func:`harvest_vlasov_ensemble`, which harvests ``solver="vlasov"``
runs into :class:`FieldDataset` training pairs compatible with the DL
solver pipeline.
"""

from repro.vlasov.solver import VlasovConfig, VlasovSimulation, two_stream_distribution
from repro.vlasov.ensemble import VlasovEnsemble, vlasov_config_from
from repro.vlasov.harvest import expected_counts, harvest_vlasov_ensemble

__all__ = [
    "VlasovConfig",
    "VlasovSimulation",
    "VlasovEnsemble",
    "vlasov_config_from",
    "two_stream_distribution",
    "expected_counts",
    "harvest_vlasov_ensemble",
]
