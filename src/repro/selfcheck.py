"""Installation self-check.

``python -m repro selfcheck`` runs a condensed version of the validation
chain — device physics, solver consistency, moment mathematics,
estimator equivalences, and a miniature end-to-end Monte-Carlo
cross-check — and prints one PASS/FAIL line per property. It takes a few
seconds and requires nothing beyond the installed package; use it to
confirm an environment before trusting real estimates from it.
"""

from __future__ import annotations

import math
import os
from typing import Callable, List, Tuple

import numpy as np


def _selfcheck_pool_task(state, payload):
    """Worker task for the supervisor property (module-level so spawn
    start methods can import it): doubles the value, but dies hard on
    the first delivery of a payload marked ``die``."""
    from repro.parallel import process_worker_context

    if payload.get("die"):
        context = process_worker_context()
        if context is not None and context.attempt <= 1:
            os._exit(17)
    return payload["value"] * 2


def _checks() -> List[Tuple[str, Callable[[], bool]]]:
    from repro.cells import build_library
    from repro.characterization import (
        characterize_library,
        mgf_moments,
        moments_numeric,
    )
    from repro.core import (
        CellUsage,
        FullChipModel,
        RandomGate,
        RGCorrelation,
        expand_mixture,
    )
    from repro.core.estimators import integral2d_variance, linear_variance
    from repro.devices import DeviceModel, NMOS
    from repro.process import synthetic_90nm

    technology = synthetic_90nm(correlation_length=0.5e-3)
    model = DeviceModel(technology)
    library = build_library()
    l_nom = technology.length.nominal

    def check_library() -> bool:
        return len(library) == 62 and library.total_states() > 400

    def check_device_physics() -> bool:
        lengths = np.linspace(0.9, 1.1, 5) * l_nom
        ioff = model.off_current(NMOS, lengths, technology.min_width)
        return bool(np.all(np.diff(ioff) < 0) and np.all(ioff > 0))

    def check_stack_effect() -> bool:
        from repro.spice import state_leakage
        nand = library["NAND2_X1"]
        by_label = {s.label: s for s in nand.states}
        stacked = float(state_leakage(nand.netlist,
                                      by_label["I0=0,I1=0"].nodes, model,
                                      l_nom)[0])
        single = float(state_leakage(nand.netlist,
                                     by_label["I0=1,I1=0"].nodes, model,
                                     l_nom)[0])
        return stacked < 0.5 * single

    characterization = characterize_library(
        library, technology, cells=["INV_X1", "NAND2_X1", "NOR2_X1"])

    def check_moments() -> bool:
        fit = characterization["NAND2_X1"].states[0].fit
        closed = mgf_moments(fit.a, fit.b, fit.c, l_nom,
                             technology.length.sigma)
        numeric = moments_numeric(fit.a, fit.b, fit.c, l_nom,
                                  technology.length.sigma)
        return (abs(closed[0] / numeric[0] - 1) < 1e-6
                and abs(closed[1] / numeric[1] - 1) < 1e-4)

    usage = CellUsage({"INV_X1": 0.4, "NAND2_X1": 0.4, "NOR2_X1": 0.2})
    rg = RandomGate(expand_mixture(characterization, usage, 0.5))
    rgc = RGCorrelation(rg, l_nom, technology.length.sigma)
    correlation = technology.total_correlation

    def check_linear_is_exact() -> bool:
        chip = FullChipModel(n_cells=144, width=6e-5, height=6e-5,
                             rows=12, cols=12)
        positions = chip.site_positions()
        delta = positions[:, None, :] - positions[None, :, :]
        cov = rgc.covariance(
            correlation.evaluate_xy(delta[..., 0], delta[..., 1]))
        np.fill_diagonal(cov, rgc.same_site_covariance)
        brute = float(cov.sum())
        linear = linear_variance(12, 12, chip.pitch_x, chip.pitch_y,
                                 correlation, rgc)
        return abs(linear / brute - 1) < 1e-10

    def check_integral_converges() -> bool:
        side, die = 120, 120 * 2e-6
        linear = linear_variance(side, side, die / side, die / side,
                                 correlation, rgc)
        integral = integral2d_variance(side * side, die, die, correlation,
                                       rgc)
        return abs(math.sqrt(integral) / math.sqrt(linear) - 1) < 0.01

    def check_monte_carlo() -> bool:
        from repro.analysis import chip_monte_carlo, realize_design
        from repro.circuits import grid_placement, random_circuit
        from repro.core import FullChipLeakageEstimator

        rng = np.random.default_rng(7)
        netlist = random_circuit(library, usage, 400, rng=rng)
        grid_placement(netlist, 8e-5, 8e-5, rng=rng)
        realization = realize_design(netlist, characterization, rng=rng)
        mc = chip_monte_carlo(realization, technology, n_samples=1500,
                              rng=rng)
        estimate = FullChipLeakageEstimator(
            characterization, usage, 400, 8e-5, 8e-5).estimate("linear")
        return (abs(estimate.mean / mc.mean - 1) < 0.10
                and abs(estimate.std / mc.std - 1) < 0.25)

    def check_delta_engine() -> bool:
        from repro.core import FullChipLeakageEstimator
        from repro.delta import (
            DELTA_MEAN_RTOL,
            DELTA_STD_RTOL,
            BaseEstimate,
            CellSwapEdit,
            estimate_delta,
        )

        base = BaseEstimate.build(characterization, usage, 400, 8e-5, 8e-5)
        edit = CellSwapEdit(from_cell="INV_X1", to_cell="NOR2_X1",
                            fraction=0.05)
        delta = estimate_delta(base, edit)
        fractions = dict(base.fractions)
        edit.apply(fractions, base.chip.n_cells)
        fresh = FullChipLeakageEstimator(
            characterization, CellUsage(fractions), 400, 8e-5,
            8e-5).estimate("linear")
        return (math.isclose(delta.mean, fresh.mean,
                             rel_tol=DELTA_MEAN_RTOL)
                and math.isclose(delta.std, fresh.std,
                                 rel_tol=DELTA_STD_RTOL)
                and delta.details["delta"]["moments_recomputed"] > 0)

    def check_result_cache() -> bool:
        from repro.service.cache import MISS, TIER_ESTIMATE, ResultCache

        cache = ResultCache(max_entries=4)
        cache.put(TIER_ESTIMATE, "selfcheck",
                  {"mean": 1.0}, payload={"mean": 1.0})
        hit = cache.get(TIER_ESTIMATE, "selfcheck")
        miss = cache.get(TIER_ESTIMATE, "absent")
        stats = cache.stats()[TIER_ESTIMATE]
        return (hit == {"mean": 1.0} and miss is MISS
                and stats["entries"] == 1 and stats["bytes"] > 0
                and stats["hits"] == 1 and stats["misses"] == 1)

    def check_sharded_cache() -> bool:
        import tempfile
        import threading

        from repro.service.cache import TIER_ESTIMATE, ResultCache

        with tempfile.TemporaryDirectory() as root:
            # Two cache instances over one directory stand in for two
            # processes: flock serializes their per-shard writes.
            writers = [ResultCache(max_entries=128, persist_dir=root)
                       for _ in range(2)]
            errors: List[Exception] = []

            def write(cache, offset) -> None:
                try:
                    for i in range(24):
                        n = offset * 24 + i
                        cache.put(TIER_ESTIMATE, f"k{n:03d}", {"value": n},
                                  payload={"value": n})
                except Exception as exc:  # noqa: BLE001 - checked below
                    errors.append(exc)

            threads = [threading.Thread(target=write,
                                        args=(writers[j % 2], j))
                       for j in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # A restarted reader trusts only what rebuild() verified.
            reader = ResultCache(max_entries=128, persist_dir=root)
            report = reader.rebuild()
            good = (not errors and report["valid"] == 96
                    and report["quarantined"] == 0)
            for n in range(96):
                good = good and (reader.get(TIER_ESTIMATE, f"k{n:03d}")
                                 == {"value": n})
            return good

    def check_process_supervisor() -> bool:
        from repro.parallel import ProcessWorkerPool

        pool = ProcessWorkerPool(
            _selfcheck_pool_task, n_workers=1, name="selfcheck-pool",
            heartbeat_interval=0.02, heartbeat_timeout=1.0,
            restart_backoff=0.01, max_backoff=0.1, init_timeout=60.0)
        try:
            before = pool.run({"die": False, "value": 3}, timeout=30.0)
            # The first delivery kills the worker; supervision restarts
            # it and requeues the task, whose second delivery computes.
            killed = pool.run({"die": True, "value": 5}, timeout=60.0)
            after = pool.run({"die": False, "value": 7}, timeout=30.0)
            return (before == 6 and killed == 10 and after == 14
                    and pool.restarts >= 1)
        finally:
            pool.stop()

    return [
        ("62-cell library builds with full state coverage", check_library),
        ("device leakage decreases with channel length", check_device_physics),
        ("stack effect suppresses series-OFF leakage", check_stack_effect),
        ("closed-form moments match numerical integration", check_moments),
        ("linear-time transform is exact on site grids", check_linear_is_exact),
        ("constant-time integral converges to the transform",
         check_integral_converges),
        ("estimator agrees with full-chip Monte Carlo", check_monte_carlo),
        ("delta engine matches a fresh estimate within tolerance",
         check_delta_engine),
        ("result cache accounts entries, bytes, and hit/miss traffic",
         check_result_cache),
        ("result cache shards round-trip under concurrent writers",
         check_sharded_cache),
        ("process supervisor restarts a killed worker and requeues",
         check_process_supervisor),
    ]


def run_selfcheck(verbose: bool = True) -> bool:
    """Run all checks; returns True iff every property holds."""
    all_good = True
    for label, check in _checks():
        try:
            good = bool(check())
        except Exception as exc:  # a crash is a failure with a reason
            good = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        all_good &= good
        if verbose:
            print(f"[{'PASS' if good else 'FAIL'}] {label}")
    if verbose:
        print("self-check:", "OK" if all_good else "FAILED")
    return all_good
