"""The four benchmark workloads, their units of work and output checks.

A run repeats one unit of work with sub-seeds derived from the workload
seed, so the same seed always gives the same inputs and the same number
of units. Training units call `model.train`; energy units call
`analysis.oversmoothing_traces`. Only the epoch-boundary stamp on
`AdamW.zero_grad` is installed here; everything else is timed around
direct calls into graphcd.

Timed runs give each training unit its own forked process, as a user's
`graphcd train` would have, so that every training run has its own peak
resident memory: the largest dopri5 tape depends on the seed, and a peak
taken over all units of a run would report the unluckiest seed rather
than what one training run costs. All energy units share one forked
process, as the variants of `graphcd energy` do.
"""
from __future__ import annotations

import json
import math
import os
import pickle
import resource
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

import graphcd.analysis as an
import graphcd.model as mdl
import graphcd.presets as presets
from graphcd.tensor import Tensor

import tracing

# Enough timed samples that at least ten lie beyond the 90th percentile.
MIN_SAMPLES = 100
# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 31
# Stated tolerances of the reference comparison (default seed only).
LOSS_RTOL = 1e-6
ACC_ATOL = 0.03  # just over one test node of texas-like (1/35)
ENERGY_RTOL = 1e-6
DEFAULT_SEED = 0


def sub_seed(seed: int, unit: int) -> int:
    """Training and split seed of one unit of a run."""
    return seed * 10_000 + unit


@dataclass
class Measurement:
    """Raw samples of one untraced or traced run of a workload."""

    setup_s: list = field(default_factory=list)
    setup_intervals: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)
    # (start, end) of each operation: a training epoch, or one variant's
    # forward and energy trace on the energy workload
    op_intervals: list = field(default_factory=list)
    forward_s: list = field(default_factory=list)
    peak_rss_mb: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, n_ops: int, why: str):
        self.failed += n_ops
        self.failures.append(why)

    def merge(self, part: "Measurement"):
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(part, f.name)
            if isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                mine.update(theirs)
            else:
                setattr(self, f.name, mine + theirs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_unit(isolate: bool, fn, *args) -> Measurement:
    """fn(*args) -> Measurement, in this process or in a forked child.

    A child starts at the parent's current (not peak) resident set, and
    its Measurement carries the child's own peak. The process has no
    other threads (BLAS is pinned to one), so forking it is safe.
    """
    if not isolate:
        return fn(*args)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            part = fn(*args)
            part.peak_rss_mb.append(peak_rss_mb())
            with os.fdopen(w, "wb") as fh:
                pickle.dump(part, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            # The child must never unwind into the parent's code.
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"unit process {fn.__qualname__}{args} exited "
                           f"with status {status}")
    return pickle.loads(data)


@dataclass(frozen=True)
class Training:
    """`model.train` on a preset with its default configurations."""

    name: str
    preset: str
    method: str | None = None
    max_epochs: int | None = None
    unit_s: float = 1.0
    forwards: int = MIN_SAMPLES
    acc_floor: float = 0.6

    def model_config(self):
        cfg = presets.default_model_config(self.preset)
        if self.method is not None:
            cfg = replace(cfg, solver=replace(cfg.solver, method=self.method))
        return cfg

    def train_config(self, seed: int):
        tc = replace(presets.default_train_config(self.preset), seed=seed)
        if self.max_epochs is not None:
            tc = replace(tc, epochs=min(tc.epochs, self.max_epochs))
        return tc

    def setup_once(self, seed: int) -> tuple[float, float]:
        """From load_preset to the first epoch boundary, then stop."""
        with tracing.Boundary(*tracing.BOUNDARY, abort=True) as clock:
            t0 = time.perf_counter()
            g = presets.load_preset(self.preset, n_splits=1, split_seed=seed)
            try:
                mdl.train(self.model_config(), self.train_config(seed), g,
                          g.splits["split0"])
            except tracing.Abort:
                pass
        return t0, clock.stamps[0]

    def run(self, seed: int, seconds: float, m: Measurement,
            isolate: bool = True):
        units = max(1, round(seconds / self.unit_s))
        per_unit = math.ceil(self.forwards / units)
        i = 0
        while i < units or len(m.epoch_s) < MIN_SAMPLES:
            m.merge(run_unit(isolate, self.unit, sub_seed(seed, i), per_unit))
            i += 1

    def unit(self, s: int, n_forwards: int) -> Measurement:
        """One training run, its checks, and n_forwards timed forwards."""
        m = Measurement()
        cfg, tc = self.model_config(), self.train_config(s)
        g = presets.load_preset(self.preset, n_splits=1, split_seed=s)
        split = g.splits["split0"]
        with tracing.Boundary(*tracing.BOUNDARY) as clock:
            try:
                res = mdl.train(cfg, tc, g, split)
            except (FloatingPointError, ValueError) as e:
                n = max(1, len(clock.stamps))
                m.attempted += n
                m.fail(n, f"unit {s}: {e!r}")
                return m
        stamps = clock.stamps
        m.epoch_s.extend(np.diff(stamps))
        m.op_intervals.extend(zip(stamps[:-1], stamps[1:]))
        m.attempted += len(stamps) - 1
        out = {"final_loss": res.train_losses[-1], "test_acc": res.test_acc}
        m.outcomes[str(s)] = out
        bad = check_training(out, reference(self.name, s), self.acc_floor)
        if bad:
            m.fail(len(stamps) - 1, f"unit {s}: {'; '.join(bad)}")

        # The restored best snapshot must reproduce the reported accuracy.
        supports = mdl.build_supports(cfg, g)
        m.attempted += 1
        params = {n: Tensor(v) for n, v in res.params.items()}
        logits, _, _ = mdl.forward(cfg, params, g, train_mode=False,
                                   supports=supports)
        acc = mdl.accuracy(logits.data, g.labels, split["test"])
        if acc != res.test_acc:
            m.fail(1, f"unit {s}: eval forward gives test_acc {acc}, "
                      f"train reported {res.test_acc}")
        self._forwards(cfg, g, supports, s, n_forwards, m)
        return m

    @staticmethod
    def _forwards(cfg, g, supports, s: int, n: int, m: Measurement):
        """Time n eval-mode forwards at the unit's initial parameters.

        Not at the trained ones: the adaptive solver's step count on a
        trained model depends on where training ended, which would make
        the figure a property of the seed.
        """
        params = mdl.init_params(cfg, g, np.random.default_rng(s))
        for _ in range(n):
            t0 = time.perf_counter()
            logits, _, _ = mdl.forward(cfg, params, g, train_mode=False,
                                       supports=supports)
            m.forward_s.append(time.perf_counter() - t0)
            m.attempted += 1
            if not np.all(np.isfinite(logits.data)):
                m.fail(1, f"unit {s}: non-finite logits at initialisation")

    def quality(self, m: Measurement) -> float:
        """Mean best-validation-snapshot test accuracy over the units."""
        return float(np.mean([o["test_acc"] for o in m.outcomes.values()]))


@dataclass(frozen=True)
class Energy:
    """`analysis.oversmoothing_traces` of the untrained model."""

    name: str
    preset: str
    variants: tuple = ("pure_diffusion", "adaptive")
    unit_s: float = 0.12

    def setup_once(self, seed: int) -> tuple[float, float]:
        """From load_preset to the first model forward, then stop."""
        with tracing.Boundary(mdl, "forward", abort=True) as clock:
            t0 = time.perf_counter()
            g = presets.load_preset(self.preset, n_splits=1, split_seed=seed)
            try:
                an.oversmoothing_traces(g, presets.oversmoothing_config(),
                                        self.variants, seed=seed)
            except tracing.Abort:
                pass
        return t0, clock.stamps[0]

    def run(self, seed: int, seconds: float, m: Measurement,
            isolate: bool = True):
        m.merge(run_unit(isolate, self.units, seed, seconds))

    def units(self, seed: int, seconds: float) -> Measurement:
        m = Measurement()
        g = presets.load_preset(self.preset, n_splits=1, split_seed=seed)
        cfg = presets.oversmoothing_config()
        n = max(1, round(seconds / self.unit_s),
                math.ceil(MIN_SAMPLES / len(self.variants)))
        for i in range(n):
            m.merge(self.unit(g, cfg, sub_seed(seed, i)))
        return m

    def unit(self, g, cfg, s: int) -> Measurement:
        """Every variant's forward and energy trace at one initialisation."""
        m = Measurement()
        ratios, t_unit = {}, time.perf_counter()
        for v in self.variants:
            t0 = time.perf_counter()
            m.attempted += 1
            try:
                trace = an.oversmoothing_traces(g, cfg, [v], seed=s)[v]
            except (FloatingPointError, ValueError) as e:
                m.fail(1, f"unit {s} {v}: {e!r}")
                continue
            t1 = time.perf_counter()
            m.forward_s.append(t1 - t0)
            m.op_intervals.append((t0, t1))
            ratios[v] = trace.energies[-1] / trace.energies[0]
        m.epoch_s.append(time.perf_counter() - t_unit)
        m.outcomes[str(s)] = ratios
        bad = check_energy(ratios, reference(self.name, s))
        if bad:
            m.fail(len(ratios), f"unit {s}: {'; '.join(bad)}")
        return m

    def quality(self, m: Measurement) -> float:
        """Share of initialisations that keep the energy-collapse contrast
        of acceptance criterion 2: diffusion alone collapses below 1% of
        the initial energy while the adaptive field keeps over 10%."""
        ok = [r.get("pure_diffusion", math.inf) < 0.01
              and r.get("adaptive", 0.0) > 0.1 for r in m.outcomes.values()]
        return float(np.mean(ok))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Training("cora-rk4-train", "cora-like", max_epochs=101, unit_s=40.0,
             forwards=200, acc_floor=0.75),
    Training("texas-rk4-train", "texas-like", unit_s=1.0, forwards=1000),
    # The largest dopri5 tape falls in the first ten epochs; short units
    # let a run cover more seeds.
    Training("texas-dopri5-train", "texas-like", method="dopri5",
             max_epochs=15, unit_s=0.9, forwards=520),
    Energy("oversmooth-energy", "oversmooth"),
)}


# ---------------------------------------------------------------------------
# correctness


_REFERENCE: dict | None = None


def load_reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


def reference(workload: str, s: int):
    """Recorded outcome of unit seed `s`, or None off the default seed."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = load_reference()
    return _REFERENCE.get(workload, {}).get(str(s))


def check_training(out: dict, ref: dict | None, acc_floor: float) -> list:
    """Failures of one training unit: reference values when recorded for
    this unit seed, otherwise invariants only."""
    bad = []
    loss, acc = out["final_loss"], out["test_acc"]
    if not math.isfinite(loss):
        bad.append(f"final loss {loss} is not finite")
    if ref is None:
        if not acc >= acc_floor:
            bad.append(f"test_acc {acc:.4f} below floor {acc_floor}")
        return bad
    if not abs(loss - ref["final_loss"]) <= LOSS_RTOL * abs(ref["final_loss"]):
        bad.append(f"final loss {loss!r} != reference {ref['final_loss']!r} "
                   f"(rtol {LOSS_RTOL})")
    if not abs(acc - ref["test_acc"]) <= ACC_ATOL:
        bad.append(f"test_acc {acc!r} != reference {ref['test_acc']!r} "
                   f"(atol {ACC_ATOL})")
    return bad


def check_energy(ratios: dict, ref: dict | None) -> list:
    """Failures of one energy unit: E(T)/E(0) per variant against the
    reference, otherwise finite positive ratios and diffusion that loses
    energy."""
    bad = []
    for v, r in ratios.items():
        if not (math.isfinite(r) and r > 0):
            bad.append(f"{v}: E(T)/E(0) = {r} is not finite and positive")
        elif ref is not None and not abs(r - ref[v]) <= ENERGY_RTOL * ref[v]:
            bad.append(f"{v}: E(T)/E(0) {r!r} != reference {ref[v]!r} "
                       f"(rtol {ENERGY_RTOL})")
    if ref is None and not ratios.get("pure_diffusion", 0.0) < 1.0:
        bad.append("pure_diffusion gains energy")
    return bad
