"""Sweep of traditional PIC simulations producing training data.

Section IV-A1 of the paper: 20 combinations of ``(v0, vth)``, 10
seeded "experiments" per combination (data augmentation), 200 steps
per run, one (histogram, field) pair per step — 40,000 pairs total.

There is one production harvest: every run becomes a public-API
:class:`~repro.api.RunRequest` selecting the ``training_pairs`` +
``fields`` observables (:func:`harvest_requests`), a
:class:`~repro.api.Client` micro-batches compatible requests into
vectorized ensembles of :func:`ensemble_batch_size` runs (optionally
sharded over spawned executor workers), and :func:`dataset_from_result`
assembles each served result.  :func:`run_campaign`,
:func:`run_test_set_ii`, :func:`harvest_via_client` and the streaming
:class:`~repro.datagen.stream.CampaignStream` all take that path.
:func:`harvest_ensemble` steps one batched engine directly and is the
in-memory reference the served path is checked against, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.datagen.dataset import FieldDataset
from repro.engines.base import make_engine
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space_batch
from repro.utils.rng import spawn_seeds

if TYPE_CHECKING:
    from repro.api.envelope import RunRequest

# Harvests batch runs into ensembles of at most this many
# macro-particles so the stacked (batch, n) state stays cache- and
# memory-friendly even for the paper-scale 200-run campaign.
_ENSEMBLE_PARTICLE_BUDGET = 8_000_000


@dataclass(frozen=True)
class CampaignConfig:
    """Specification of a data-generation sweep.

    ``v0_values`` x ``vth_values`` x ``experiments_per_combo`` seeded
    traditional PIC runs of ``base_config.n_steps`` steps each.
    """

    v0_values: tuple[float, ...]
    vth_values: tuple[float, ...]
    experiments_per_combo: int
    base_config: SimulationConfig
    ps_grid: PhaseSpaceGrid
    binning: str = "ngp"
    include_initial_state: bool = True
    master_seed: int = 12345

    def __post_init__(self) -> None:
        if not self.v0_values or not self.vth_values:
            raise ValueError("campaign needs at least one v0 and one vth value")
        if self.experiments_per_combo < 1:
            raise ValueError(
                f"experiments_per_combo must be >= 1, got {self.experiments_per_combo}"
            )
        if any(v <= 0 for v in self.v0_values):
            raise ValueError("beam speeds must be positive")
        if any(v < 0 for v in self.vth_values):
            raise ValueError("thermal speeds must be non-negative")

    @property
    def n_simulations(self) -> int:
        """Total number of PIC runs in the sweep."""
        return len(self.v0_values) * len(self.vth_values) * self.experiments_per_combo

    @property
    def n_samples(self) -> int:
        """Total number of (histogram, field) pairs produced."""
        per_run = self.base_config.n_steps + (1 if self.include_initial_state else 0)
        return self.n_simulations * per_run

    def simulation_specs(self) -> list[tuple[float, float, int]]:
        """Deterministic ``(v0, vth, seed)`` list for every run."""
        seeds = spawn_seeds(self.master_seed, self.n_simulations)
        specs = []
        i = 0
        for v0 in self.v0_values:
            for vth in self.vth_values:
                for _ in range(self.experiments_per_combo):
                    specs.append((v0, vth, seeds[i]))
                    i += 1
        return specs

    def run_configs(self) -> "list[SimulationConfig]":
        """One :class:`SimulationConfig` per run, in spec order."""
        return [
            self.base_config.with_updates(v0=v0, vth=vth, seed=seed)
            for v0, vth, seed in self.simulation_specs()
        ]

    def to_canonical_dict(self) -> dict:
        """JSON-stable description of the sweep (the campaign identity).

        Two campaigns with equal canonical dicts produce bitwise-equal
        datasets; the streaming pipeline hashes this to decide whether
        an existing manifest belongs to the same campaign.
        """
        return {
            "v0_values": list(self.v0_values),
            "vth_values": list(self.vth_values),
            "experiments_per_combo": self.experiments_per_combo,
            "base_config": self.base_config.to_dict(),
            "ps_grid": {
                "n_x": self.ps_grid.n_x,
                "n_v": self.ps_grid.n_v,
                "box_length": self.ps_grid.box_length,
                "v_min": self.ps_grid.v_min,
                "v_max": self.ps_grid.v_max,
            },
            "binning": self.binning,
            "include_initial_state": self.include_initial_state,
            "master_seed": self.master_seed,
        }


def harvest_ensemble(
    configs: Sequence[SimulationConfig],
    ps_grid: PhaseSpaceGrid,
    binning: str = "ngp",
    include_initial_state: bool = True,
) -> FieldDataset:
    """Harvest training pairs from one vectorized ensemble of runs.

    All ``configs`` advance together as a single batched traditional
    engine from the registry (``repro.engines``) — one
    gather/push/deposit/Poisson call per step for the whole batch.
    Pairs come back in run-major order (all pairs of run 0, then all
    pairs of run 1, ...) and are bitwise identical whatever the batch
    composition, so ``harvest_ensemble([cfg])`` is the per-run
    reference.  This is the in-memory oracle of the served harvest.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("ensemble harvest needs at least one configuration")
    n_steps = configs[0].n_steps
    if any(cfg.n_steps != n_steps for cfg in configs):
        raise ValueError("ensemble harvest needs a uniform n_steps across configs")
    sim = make_engine([cfg.with_updates(solver="traditional") for cfg in configs])
    batch = sim.batch
    inputs: list[list[np.ndarray]] = [[] for _ in range(batch)]
    targets: list[list[np.ndarray]] = [[] for _ in range(batch)]
    steps: list[int] = []

    def collect(x: np.ndarray, v: np.ndarray) -> None:
        # One fused scatter bins the whole ensemble; per-row results are
        # bitwise identical to per-run bin_phase_space calls.
        hists = bin_phase_space_batch(x, v, ps_grid, order=binning)
        for b in range(batch):
            inputs[b].append(hists[b])
            targets[b].append(sim.efield[b].copy())

    if include_initial_state:
        # At t=0 velocities are still at integer time, matching how the
        # DL-PIC computes its very first field.
        collect(sim.particles.x, sim.v_at_integer_time)
        steps.append(0)
    for _ in range(n_steps):
        sim.step()
        # Positions at integer time, velocities at the trailing half
        # step — exactly what the DL solver sees at runtime.
        collect(sim.particles.x, sim.particles.v)
        steps.append(sim.step_index)

    step_col = np.asarray(steps, dtype=np.float64)
    n_pairs = step_col.size
    parts = [
        FieldDataset(
            inputs=np.stack(inputs[b]),
            targets=np.stack(targets[b]),
            params=np.column_stack(
                [
                    np.full(n_pairs, cfg.v0),
                    np.full(n_pairs, cfg.vth),
                    np.full(n_pairs, float(cfg.seed)),
                    step_col,
                ]
            ),
            ps_grid=ps_grid,
        )
        for b, cfg in enumerate(configs)
    ]
    return FieldDataset.concatenate(parts)


def ensemble_batch_size(campaign: CampaignConfig, workers: int = 1) -> int:
    """Runs per vectorized ensemble of a campaign served by ``workers``.

    At most the particle budget over one run, and small enough that
    the sweep splits into at least ``workers`` ensembles, so every
    executor worker gets one.
    """
    budget = max(1, _ENSEMBLE_PARTICLE_BUDGET // campaign.base_config.n_particles)
    return min(budget, -(-campaign.n_simulations // workers))


def harvest_requests(
    configs: Sequence[SimulationConfig],
    ps_grid: PhaseSpaceGrid,
    binning: str,
    id_prefix: str = "harvest-",
) -> "list[RunRequest]":
    """One traditional run request per config producing (histogram, field) pairs."""
    from repro.api.envelope import RunRequest

    selection = [
        {
            "name": "training_pairs",
            "n_x": ps_grid.n_x, "n_v": ps_grid.n_v,
            "v_min": ps_grid.v_min, "v_max": ps_grid.v_max,
            "box_length": ps_grid.box_length, "order": binning,
        },
        "fields",
    ]
    return [
        RunRequest(
            config=cfg.with_updates(solver="traditional"),
            id=f"{id_prefix}{i}",
            observables=selection,
        )
        for i, cfg in enumerate(configs)
    ]


def dataset_from_result(
    config: SimulationConfig,
    result: "object",
    ps_grid: PhaseSpaceGrid,
    include_initial_state: bool = True,
) -> FieldDataset:
    """Assemble one run's harvested pairs from its served result.

    ``result`` is any object with a ``series`` mapping holding the
    ``training_pairs`` observables output (``histograms`` + ``fields``)
    — a :class:`~repro.api.RunResult` or a service-layer result.  The
    one assembly path shared by the materializing harvests and the
    streaming campaign (:mod:`repro.datagen.stream`), so the two are
    bitwise interchangeable by construction.
    """
    first = 0 if include_initial_state else 1
    hists = np.asarray(result.series["histograms"])[first:]
    fields = np.asarray(result.series["fields"])[first:]
    n_pairs = hists.shape[0]
    params = np.column_stack(
        [
            np.full(n_pairs, config.v0),
            np.full(n_pairs, config.vth),
            np.full(n_pairs, float(config.seed)),
            np.arange(first, first + n_pairs, dtype=np.float64),
        ]
    )
    return FieldDataset(inputs=hists, targets=fields, params=params, ps_grid=ps_grid)


def _harvest(
    configs: Sequence[SimulationConfig],
    ps_grid: PhaseSpaceGrid,
    binning: str,
    include_initial_state: bool,
    max_batch_size: int,
    workers: int = 1,
) -> FieldDataset:
    """Serve every config through an owned synchronous client, in order."""
    from repro.api import Client
    from repro.service.store import ResultStore

    configs = list(configs)
    if not configs:
        raise ValueError("ensemble harvest needs at least one configuration")
    # Campaign outputs are huge and single-use: the store is disabled.
    with Client(
        background=False,
        max_batch_size=max_batch_size,
        store=ResultStore(capacity=0),
        workers=workers,
    ) as client:
        results = client.map(harvest_requests(configs, ps_grid, binning))
    return FieldDataset.concatenate([
        dataset_from_result(cfg, result, ps_grid, include_initial_state)
        for cfg, result in zip(configs, results)
    ])


def harvest_via_client(
    configs: Sequence[SimulationConfig],
    ps_grid: PhaseSpaceGrid,
    binning: str = "ngp",
    include_initial_state: bool = True,
    max_batch_size: int = 16,
) -> FieldDataset:
    """Harvest training pairs through the public API.

    Each config is one :class:`~repro.api.RunRequest`; a synchronous
    :class:`~repro.api.Client` coalesces compatible requests into
    ensembles of up to ``max_batch_size``.  The pairs come back in
    request order, bitwise identical to :func:`harvest_ensemble`.
    """
    return _harvest(configs, ps_grid, binning, include_initial_state, max_batch_size)


def run_campaign(campaign: CampaignConfig, n_workers: int = 1) -> FieldDataset:
    """Execute the whole sweep and concatenate the harvested pairs.

    Every run goes through the public API in ensembles of
    :func:`ensemble_batch_size` runs; ``n_workers > 1`` shards those
    ensembles over that many spawned executor processes.  The result is
    deterministic and bitwise independent of ``n_workers``: the per-run
    seeds are fixed by :meth:`CampaignConfig.simulation_specs`, results
    come back in spec order, and the batched kernels reproduce single
    runs exactly.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return _harvest(
        campaign.run_configs(),
        campaign.ps_grid,
        campaign.binning,
        campaign.include_initial_state,
        ensemble_batch_size(campaign, n_workers),
        workers=n_workers,
    )


def run_test_set_ii(
    campaign: CampaignConfig,
    v0_values: Sequence[float],
    vth_values: Sequence[float],
    n_samples: int,
    seed: int = 777,
) -> FieldDataset:
    """Build the paper's "Test Set II" from *unseen* parameters.

    Runs one simulation per unseen ``(v0, vth)`` combination and keeps
    a random subsample of ``n_samples`` pairs, mimicking the paper's
    1,000-sample held-out set from parameters "not included in the
    initial data set".
    """
    overlap = set(v0_values) & set(campaign.v0_values)
    overlap_vth = set(vth_values) & set(campaign.vth_values)
    if overlap and overlap_vth:
        raise ValueError(
            f"test-set-II parameters overlap the training sweep: v0 {overlap}, vth {overlap_vth}"
        )
    seeds = spawn_seeds(seed, len(v0_values) * len(vth_values))
    cfgs = [
        campaign.base_config.with_updates(v0=v0, vth=vth, seed=seeds[i])
        for i, (v0, vth) in enumerate(
            (v0, vth) for v0 in v0_values for vth in vth_values
        )
    ]
    full = harvest_via_client(
        cfgs, campaign.ps_grid, campaign.binning, campaign.include_initial_state
    )
    if n_samples >= len(full):
        return full
    order = np.random.default_rng(seed).permutation(len(full))[:n_samples]
    return full.subset(order)
