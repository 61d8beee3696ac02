"""Command-line interface.

The everyday one-shot flow::

    python -m repro characterize --out char.json
    python -m repro estimate --cells 1000000 --width-mm 2 --height-mm 2 \
        --usage INV_X1=0.4 --usage NAND2_X1=0.6 [--char char.json]
    python -m repro iscas85 c432

``characterize`` persists the library characterization; ``estimate``
runs the Random-Gate estimator (loading a stored characterization if
given, otherwise characterizing on the fly); ``iscas85`` runs the full
late-mode flow on one ISCAS85-equivalent benchmark.

The serving flow (see ``docs/SERVICE.md``)::

    python -m repro serve --port 8080 --workers 4 --cache-dir /var/cache/repro
    python -m repro submit --url http://localhost:8080 \
        --cells 100000 --width-mm 2 --height-mm 2 [--async]

``serve`` starts the long-running estimation service (job queue,
content-addressed result cache, worker pool, HTTP API, metrics);
``submit`` posts one request to a running server and prints the result
table (or the job id with ``--async``).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Dict, List, Optional, Sequence

from repro import __version__
from repro.analysis.distribution import LeakageDistribution
from repro.analysis.report import format_table
from repro.cells.library import build_library
from repro.characterization.characterizer import characterize_library
from repro.characterization.store import (
    load_characterization,
    save_characterization,
)
from repro.core.api import FullChipLeakageEstimator
from repro.core.usage import CellUsage
from repro.exceptions import (
    ConfigurationError,
    NetlistError,
    ReproError,
    UnknownBaseError,
)
from repro.process.technology import synthetic_90nm


def _technology_from_args(args) -> "Technology":
    technology = synthetic_90nm(
        correlation_length=args.corr_length_mm * 1e-3,
        d2d_fraction=args.d2d_fraction,
        relative_sigma_l=args.sigma_l)
    if args.temperature_c is not None:
        technology = technology.at_temperature(args.temperature_c + 273.15)
    return technology


def _add_technology_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corr-length-mm", type=float, default=0.5,
                        help="WID correlation length [mm] (default 0.5)")
    parser.add_argument("--d2d-fraction", type=float, default=0.5,
                        help="D2D fraction of L variance (default 0.5)")
    parser.add_argument("--sigma-l", type=float, default=0.05,
                        help="total relative L sigma (default 0.05)")
    parser.add_argument("--temperature-c", type=float, default=None,
                        help="junction temperature [C] "
                             "(default: characterization temperature)")


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="profile the run and print the per-stage "
                             "breakdown (see docs/OBSERVABILITY.md)")
    parser.add_argument("--trace-json", default=None, metavar="PATH",
                        help="write the full trace document as JSON to "
                             "PATH ('-' for stdout); implies tracing")


def _trace_requested(args) -> bool:
    return bool(args.trace or args.trace_json)


def _emit_trace(document, args) -> None:
    """Print/serialize a finished trace per the --trace* flags."""
    from repro.obs import render_stages, to_json

    if document is None:
        print("no trace captured", file=sys.stderr)
        return
    if args.trace:
        print()
        print(render_stages(document))
    if args.trace_json:
        text = to_json(document)
        if args.trace_json == "-":
            print(text)
        else:
            with open(args.trace_json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"trace written to {args.trace_json}")


def _parse_usage(entries: Optional[Sequence[str]],
                 library) -> CellUsage:
    if not entries:
        return CellUsage.uniform(library.names)
    fractions: Dict[str, float] = {}
    for entry in entries:
        if "=" not in entry:
            raise ConfigurationError(
                f"--usage entries must be NAME=FRACTION, got {entry!r}")
        name, _, value = entry.partition("=")
        fractions[name.strip()] = float(value)
    return CellUsage(fractions)


def _thermal_from_args(args):
    """Build a ThermalConfig from ``repro estimate --thermal`` flags.

    Returns None when --thermal was not requested; individual knobs
    without --thermal are an error (they would silently do nothing).
    """
    knobs = {
        "ambient_c": args.thermal_ambient_c,
        "package_resistance": args.thermal_package_resistance,
        "spreading_resistance": args.thermal_spreading_resistance,
        "spreading_length_mm": args.thermal_spreading_length_mm,
        "power_scale": args.thermal_power_scale,
        "background_power": args.thermal_background_power,
        "mode": args.thermal_mode,
    }
    if not args.thermal:
        set_flags = [name for name, value in knobs.items()
                     if value is not None]
        if set_flags:
            raise ConfigurationError(
                "thermal knobs require --thermal: "
                + ", ".join("--" + name.replace("_", "-")
                            for name in set_flags))
        return None
    from repro.thermal import ThermalConfig

    fields = {}
    if knobs["ambient_c"] is not None:
        fields["ambient"] = knobs["ambient_c"] + 273.15
    if knobs["spreading_length_mm"] is not None:
        fields["spreading_length"] = knobs["spreading_length_mm"] * 1e-3
    for name in ("package_resistance", "spreading_resistance",
                 "power_scale", "background_power", "mode"):
        if knobs[name] is not None:
            fields[name] = knobs[name]
    fields["feedback"] = not args.thermal_open_loop
    return ThermalConfig(**fields)


def _cmd_characterize(args) -> int:
    technology = _technology_from_args(args)
    library = build_library()
    characterization = characterize_library(library, technology,
                                            mode=args.mode)
    save_characterization(characterization, args.out)
    print(f"characterized {len(library)} cells "
          f"({library.total_states()} states, mode={args.mode}) "
          f"-> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    technology = _technology_from_args(args)
    library = build_library()
    if args.char:
        characterization = load_characterization(args.char, library,
                                                 technology)
    else:
        characterization = characterize_library(library, technology)
    usage = _parse_usage(args.usage, library)
    thermal = _thermal_from_args(args)
    estimator = FullChipLeakageEstimator(
        characterization, usage, args.cells,
        args.width_mm * 1e-3, args.height_mm * 1e-3,
        signal_probability=args.signal_probability,
        # The coupled variance path folds the temperature map into the
        # simplified Random-Gate moments, so a thermal run pins the
        # estimator to that mode up front.
        simplified_correlation=True if thermal is not None else None)
    estimate = estimator.estimate(args.method,
                                  trace=_trace_requested(args),
                                  thermal=thermal)
    distribution = LeakageDistribution.from_estimate(estimate,
                                                     include_vt=True)
    rows = [
        ["cells", f"{estimate.n_cells:,}"],
        ["die [mm]", f"{args.width_mm:g} x {args.height_mm:g}"],
        ["method", estimate.method],
        ["mean leakage [mA]", f"{estimate.mean * 1e3:.4f}"],
        ["mean incl. Vt RDF [mA]", f"{estimate.mean_with_vt * 1e3:.4f}"],
        ["std leakage [mA]", f"{estimate.std * 1e3:.4f}"],
        ["CV", f"{estimate.cv:.4f}"],
        ["99% quantile [mA]",
         f"{float(distribution.quantile(0.99)) * 1e3:.4f}"],
    ]
    print(format_table(["quantity", "value"], rows,
                       title="Full-chip leakage estimate"))
    doc = estimate.details.get("thermal")
    if doc is not None:
        thermal_rows = [
            ["mode", "coupled" if doc["feedback"] else "open loop"],
            ["ambient [°C]", f"{doc['ambient'] - 273.15:.2f}"],
            ["iterations", str(doc["iterations"])],
            ["converged", str(doc["converged"]).lower()],
        ]
        if doc.get("t_max") is not None:
            thermal_rows += [
                ["peak ΔT [K]", f"{doc['delta_t_max']:.3f}"],
                ["mean T [°C]", f"{doc['t_mean'] - 273.15:.2f}"],
                ["total power [W]", f"{doc['power_total']:.4g}"],
            ]
        if doc["feedback"]:
            thermal_rows += [
                ["feedback gain", f"{doc['feedback_gain']:.4f}"],
                ["std amplification", f"{doc['std_amplification']:.4f}"],
            ]
        print()
        print(format_table(["quantity", "value"], thermal_rows,
                           title="Thermal solve"))
    if _trace_requested(args):
        _emit_trace(estimate.details.get("trace"), args)
    return 0


def _cmd_iscas85(args) -> int:
    import numpy as np

    from repro.analysis.design import expected_design
    from repro.circuits.extraction import (
        extract_characteristics,
        extract_state_weights,
    )
    from repro.circuits.iscas85 import iscas85_circuit
    from repro.circuits.placement import die_dimensions, grid_placement
    from repro.signalprob.propagation import propagate_probabilities

    technology = _technology_from_args(args)
    library = build_library()
    characterization = characterize_library(library, technology)
    rng = np.random.default_rng(args.seed)

    netlist = iscas85_circuit(args.circuit, library, rng=rng)
    width, height = die_dimensions(netlist, library)
    grid_placement(netlist, width, height, rng=rng)
    net_probs = propagate_probabilities(netlist, library, 0.5)
    design = expected_design(netlist, characterization,
                             net_probabilities=net_probs)
    # Grid-placed designs take the exact lag-deduplicated fast path.
    true_mean, true_std = design.true_moments(
        technology.total_correlation, tolerance=1e-9)

    chars = extract_characteristics(netlist, library)
    weights = extract_state_weights(netlist, library, net_probs)
    estimate = FullChipLeakageEstimator(
        characterization, chars.usage, chars.n_cells, chars.width,
        chars.height, state_weights=weights,
        simplified_correlation=True).estimate("linear")

    rows = [
        ["gates", netlist.n_gates],
        ["true mean [uA]", f"{true_mean * 1e6:.3f}"],
        ["RG mean [uA]", f"{estimate.mean * 1e6:.3f}"],
        ["true std [nA]", f"{true_std * 1e9:.2f}"],
        ["RG std [nA]", f"{estimate.std * 1e9:.2f}"],
        ["std error %",
         f"{abs(estimate.std - true_std) / true_std * 100:.2f}"],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"Late-mode flow — {args.circuit}"))
    return 0


def _technology_config_from_args(args):
    from repro.service.jobs import TechnologyConfig

    return TechnologyConfig(
        corr_length_mm=args.corr_length_mm,
        d2d_fraction=args.d2d_fraction,
        sigma_l=args.sigma_l,
        temperature_c=args.temperature_c)


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service.client import ServiceClient
    from repro.service.faults import FaultInjector, injector_from_env
    from repro.service.http import create_server

    if args.replicas > 1:
        return _serve_fleet(args)
    if args.faults:
        faults = FaultInjector(args.faults, seed=args.faults_seed)
    else:
        faults = injector_from_env()
    client = ServiceClient(
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        cache_entries=args.cache_entries,
        default_timeout=args.timeout,
        faults=faults,
        worker_mode=args.worker_mode,
        cache_shards=args.cache_shards)
    server = create_server(client, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro estimation service listening on http://{host}:{port} "
          f"({args.workers} workers, queue limit {args.queue_limit}, "
          f"cache {'at ' + args.cache_dir if args.cache_dir else 'in memory'})")
    print("endpoints: POST /v1/estimate  GET /v1/jobs/<id>  "
          "GET /v1/healthz  GET /v1/readyz  GET /v1/metrics")
    if faults is not None:
        print(f"fault injection ACTIVE: {faults!r}")

    # SIGTERM -> graceful drain: readiness flips to 503, in-flight
    # requests finish (up to --drain-grace seconds), then the accept
    # loop stops. The drain runs in its own thread because the handler
    # interrupts serve_forever's thread, which shutdown() must not
    # block on.
    drain_started = threading.Event()

    def _graceful(signum, frame):
        if drain_started.is_set():
            return
        drain_started.set()
        print("\ndraining (finishing in-flight requests)...")
        threading.Thread(target=server.drain,
                         kwargs={"grace": args.drain_grace},
                         name="repro-drain", daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # not the main thread (embedded use)
        pass
    try:
        server.serve_forever()
        print("drained; shutting down")
    except KeyboardInterrupt:
        print("\nshutting down")
        server.shutdown()
        server.server_close()
    finally:
        client.close()
    return 0


def _serve_fleet(args) -> int:
    """``repro serve --replicas N``: a supervised fleet behind one front."""
    import signal
    import threading

    from repro.service.faults import FaultInjector
    from repro.service.fleet import create_front

    faults = None
    if args.faults:
        # replica.kill draws at the front; every other site replays
        # inside the replicas with slot-salted seeds.
        faults = FaultInjector(args.faults, seed=args.faults_seed)
    options = {
        "host": args.host,
        "workers": args.workers,
        "queue_limit": args.queue_limit,
        "cache_dir": args.cache_dir,
        "cache_entries": args.cache_entries,
        "cache_shards": args.cache_shards,
        "default_timeout": args.timeout,
        "worker_mode": args.worker_mode,
        "drain_grace": args.drain_grace,
        "faults_spec": args.faults,
        "faults_seed": args.faults_seed,
    }
    fleet, front = create_front(args.replicas, host=args.host,
                                port=args.port, options=options,
                                faults=faults)
    host, port = front.server_address[:2]
    print(f"repro estimation fleet listening on http://{host}:{port} "
          f"({args.replicas} replicas x {args.workers} "
          f"{args.worker_mode} workers, cache "
          f"{'at ' + args.cache_dir if args.cache_dir else 'in memory'})")
    for entry in fleet.liveness():
        print(f"  replica {entry['replica']}: pid {entry['pid']} "
              f"port {entry['port']}")
    if faults is not None:
        print(f"fault injection ACTIVE: {faults!r}")

    drain_started = threading.Event()

    def _graceful(signum, frame):
        if drain_started.is_set():
            return
        drain_started.set()
        print("\ndraining fleet (finishing in-flight requests)...")
        threading.Thread(target=front.drain,
                         kwargs={"grace": args.drain_grace},
                         name="repro-fleet-drain", daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # not the main thread (embedded use)
        pass
    try:
        front.serve_forever()
        print("fleet drained; shutting down")
    except KeyboardInterrupt:
        print("\nshutting down fleet")
        front.shutdown()
        front.server_close()
        fleet.stop(grace=args.drain_grace)
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.service.client import RemoteClient
    from repro.service.jobs import EstimateRequest

    usage = None
    if args.usage:
        usage = {}
        for entry in args.usage:
            if "=" not in entry:
                raise ConfigurationError(
                    f"--usage entries must be NAME=FRACTION, got {entry!r}")
            name, _, value = entry.partition("=")
            usage[name.strip()] = float(value)
    request = EstimateRequest(
        n_cells=args.cells,
        width_mm=args.width_mm,
        height_mm=args.height_mm,
        usage=usage,
        signal_probability=args.signal_probability,
        method=args.method,
        n_jobs=args.n_jobs,
        tolerance=args.tolerance,
        cells=args.cell or None,
        technology=_technology_config_from_args(args),
        priority=args.priority,
        allow_degraded=args.allow_degraded,
        trace=_trace_requested(args))
    remote = RemoteClient(args.url)

    if getattr(args, "async_", False):
        job_id = remote.submit(request, timeout=args.timeout)
        print(job_id)
        return 0

    estimate = remote.estimate(request, timeout=args.timeout)
    if args.json:
        print(json.dumps(estimate.to_dict(), indent=1))
        return 0
    rows = [
        ["cells", f"{estimate.n_cells:,}"],
        ["method", estimate.method],
        ["mean leakage [mA]", f"{estimate.mean * 1e3:.4f}"],
        ["mean incl. Vt RDF [mA]", f"{estimate.mean_with_vt * 1e3:.4f}"],
        ["std leakage [mA]", f"{estimate.std * 1e3:.4f}"],
        ["CV", f"{estimate.cv:.4f}"],
    ]
    if estimate.degraded:
        rows.append(["DEGRADED", estimate.degradation_reason or "yes"])
    print(format_table(["quantity", "value"], rows,
                       title=f"Service estimate via {args.url}"))
    if _trace_requested(args):
        _emit_trace(estimate.details.get("trace"), args)
    return 0


def _cmd_whatif(args) -> int:
    import json

    from repro.service.client import RemoteClient
    from repro.service.whatif import WhatIfRequest

    edits = []
    for entry in args.edit or []:
        try:
            document = json.loads(entry)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"--edit entries must be JSON documents, got {entry!r} "
                f"({exc})") from exc
        edits.append(document)
    for swap in args.swap or []:
        parts = swap.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                "--swap entries must be FROM:TO[:FRACTION], "
                f"got {swap!r}")
        edit = {"type": "cell_swap",
                "from_cell": parts[0].strip(),
                "to_cell": parts[1].strip()}
        if len(parts) == 3:
            edit["fraction"] = float(parts[2])
        edits.append(edit)
    if args.cells is not None or args.width_mm is not None \
            or args.height_mm is not None:
        edit = {"type": "floorplan_resize"}
        if args.cells is not None:
            edit["n_cells"] = args.cells
        if args.width_mm is not None:
            edit["width"] = args.width_mm * 1e-3
        if args.height_mm is not None:
            edit["height"] = args.height_mm * 1e-3
        edits.append(edit)
    if not edits:
        raise ConfigurationError(
            "what-if needs at least one edit: --edit JSON, "
            "--swap FROM:TO[:FRACTION], --cells/--width-mm/--height-mm")

    request = WhatIfRequest(base=args.base, edits=edits,
                            priority=args.priority)
    remote = RemoteClient(args.url)
    estimate = remote.whatif(request, timeout=args.timeout)
    if args.json:
        print(json.dumps(estimate.to_dict(), indent=1))
        return 0
    rows = [
        ["base", args.base[:16]],
        ["edits", str(len(edits))],
        ["cells", f"{estimate.n_cells:,}"],
        ["method", estimate.method],
        ["mean leakage [mA]", f"{estimate.mean * 1e3:.4f}"],
        ["std leakage [mA]", f"{estimate.std * 1e3:.4f}"],
        ["CV", f"{estimate.cv:.4f}"],
    ]
    delta = estimate.details.get("delta") or {}
    if delta.get("fallback"):
        rows.append(["delta fallback",
                     delta.get("fallback_reason", "yes")])
    elif delta:
        rows.append(["delta mode", str(delta.get("mode", "?"))])
        if "moments_recomputed" in delta:
            rows.append(["moments recomputed",
                         str(delta["moments_recomputed"])])
        if "lags_reused" in delta:
            rows.append(["lags reused", str(delta["lags_reused"])])
    print(format_table(["quantity", "value"], rows,
                       title=f"Incremental what-if via {args.url}"))
    return 0


#: CLI axis name -> builder. Each builder takes (values: List[str],
#: context) and returns a core SweepAxis; context carries the library,
#: technology, and usage already resolved from the other arguments.
_SWEEP_AXES = ("corr-length-mm", "d2d-fraction", "signal-probability",
               "cells", "temperature-c")


def _parse_sweep_axis(entry: str, library, technology, usage):
    from repro.core.sweep import (
        cell_count_axis,
        correlation_length_axis,
        d2d_split_axis,
        signal_probability_axis,
        temperature_axis,
    )

    name, _, raw = entry.partition("=")
    name = name.strip().lower().replace("_", "-")
    values = [value for value in raw.split(",") if value.strip()]
    if not values:
        raise ConfigurationError(
            f"--axis entries must be NAME=V1,V2,..., got {entry!r}")
    if name == "corr-length-mm":
        return correlation_length_axis(
            [float(value) * 1e-3 for value in values], technology)
    if name == "d2d-fraction":
        return d2d_split_axis(technology,
                              [float(value) for value in values])
    if name == "signal-probability":
        return signal_probability_axis([float(value) for value in values])
    if name == "cells":
        return cell_count_axis([int(value) for value in values])
    if name == "temperature-c":
        return temperature_axis(
            [float(value) + 273.15 for value in values], library,
            technology, cells=usage.names)
    raise ConfigurationError(
        f"unknown sweep axis {name!r}; choose one of {_SWEEP_AXES}")


def _cmd_sweep(args) -> int:
    import json

    from repro.core.api import estimate_sweep

    technology = _technology_from_args(args)
    library = build_library()
    usage = _parse_usage(args.usage, library)
    axes = [_parse_sweep_axis(entry, library, technology, usage)
            for entry in args.axis]

    # A temperature axis re-characterizes per point and therefore
    # supplies the characterization itself; otherwise characterize the
    # base technology once up front.
    has_temperature = any(axis.name == "temperature" for axis in axes)
    characterization = (None if has_temperature
                        else characterize_library(library, technology))

    sweep = estimate_sweep(
        characterization, usage, args.cells_base,
        args.width_mm * 1e-3, args.height_mm * 1e-3,
        axes=axes, signal_probability=args.signal_probability,
        method=args.method, n_jobs=args.n_jobs,
        trace=_trace_requested(args))

    if args.json:
        print(json.dumps(sweep.to_dict(), indent=1))
        return 0
    rows = []
    for index, estimate in enumerate(sweep):
        coords = sweep.coords(index)
        rows.append(
            [str(coords[name]) for name in sweep.axes]
            + [f"{estimate.mean * 1e3:.4f}", f"{estimate.std * 1e3:.4f}",
               f"{estimate.cv:.4f}"])
    print(format_table(
        list(sweep.axes) + ["mean [mA]", "std [mA]", "CV"], rows,
        title=f"Batched sweep — {len(sweep)} points"))
    stats = ", ".join(f"{key}={value}"
                      for key, value in sorted(sweep.stats.items()))
    print(f"shared-work ledger: {stats}")
    if _trace_requested(args):
        _emit_trace(sweep.trace, args)
    return 0


def _cmd_selfcheck(args) -> int:
    from repro.selfcheck import run_selfcheck

    return 0 if run_selfcheck() else 1


def _cmd_corners(args) -> int:
    from repro.process.corners import corner_report

    technology = _technology_from_args(args)
    library = build_library()
    usage = _parse_usage(args.usage, library)
    report = corner_report(library, technology, usage, args.cells,
                           args.width_mm * 1e-3, args.height_mm * 1e-3,
                           method=args.method)
    rows = []
    for corner, estimate in report:
        temperature = (corner.temperature if corner.temperature is not None
                       else technology.temperature)
        rows.append([corner.name, f"{temperature - 273.15:.0f}",
                     f"{estimate.mean_with_vt * 1e3:.4f}",
                     f"{estimate.std * 1e3:.4f}",
                     f"{estimate.cv:.4f}"])
    print(format_table(
        ["corner", "Tj [C]", "mean [mA]", "std (WID) [mA]", "CV"], rows,
        title="Process-corner leakage report"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Statistical full-chip leakage estimation "
                    "(Heloue/Azizi/Najm, DAC 2007)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    characterize = commands.add_parser(
        "characterize", help="characterize the library and save to JSON")
    _add_technology_arguments(characterize)
    characterize.add_argument("--out", required=True,
                              help="output JSON path")
    characterize.add_argument("--mode", choices=["analytical", "montecarlo"],
                              default="analytical")
    characterize.set_defaults(handler=_cmd_characterize)

    estimate = commands.add_parser(
        "estimate", help="estimate full-chip leakage statistics")
    _add_technology_arguments(estimate)
    estimate.add_argument("--cells", type=int, required=True,
                          help="number of cells")
    estimate.add_argument("--width-mm", type=float, required=True)
    estimate.add_argument("--height-mm", type=float, required=True)
    estimate.add_argument("--usage", action="append", metavar="NAME=FRAC",
                          help="usage fraction (repeatable; default "
                               "uniform over the library)")
    estimate.add_argument("--signal-probability", type=float, default=0.5)
    estimate.add_argument("--method", default="auto",
                          choices=["auto", "linear", "integral2d", "polar"])
    estimate.add_argument("--char", default=None,
                          help="stored characterization JSON "
                               "(default: characterize on the fly)")
    thermal = estimate.add_argument_group(
        "thermal", "self-consistent power-thermal solve (docs/THERMAL.md)")
    thermal.add_argument("--thermal", action="store_true",
                         help="couple leakage power to die temperature "
                              "through a fixed-point solve (implies the "
                              "simplified correlation model)")
    thermal.add_argument("--ambient-c", dest="thermal_ambient_c",
                         type=float, default=None, metavar="DEG_C",
                         help="ambient temperature in Celsius (default: "
                              "the technology's characterization point)")
    thermal.add_argument("--package-resistance",
                         dest="thermal_package_resistance", type=float,
                         default=None, metavar="K_PER_W",
                         help="junction-to-ambient package resistance")
    thermal.add_argument("--spreading-resistance",
                         dest="thermal_spreading_resistance", type=float,
                         default=None, metavar="K_PER_W",
                         help="lateral spreading resistance (0 disables "
                              "the spatial kernel)")
    thermal.add_argument("--spreading-length-mm",
                         dest="thermal_spreading_length_mm", type=float,
                         default=None, metavar="MM",
                         help="spreading kernel decay length")
    thermal.add_argument("--power-scale", dest="thermal_power_scale",
                         type=float, default=None,
                         help="scale from leakage power to total "
                              "dissipated power (models dynamic power "
                              "tracking the leakage map)")
    thermal.add_argument("--background-power",
                         dest="thermal_background_power", type=float,
                         default=None, metavar="WATTS",
                         help="uniform temperature-independent power")
    thermal.add_argument("--thermal-mode", dest="thermal_mode",
                         default=None, choices=["fast", "full"],
                         help="leakage(T) evaluation: 'fast' "
                              "piecewise-linear anchors, 'full' "
                              "re-characterizes each quantized bin")
    thermal.add_argument("--open-loop", dest="thermal_open_loop",
                         action="store_true",
                         help="evaluate at the uniform ambient without "
                              "feedback (reports diagnostics only)")
    _add_trace_arguments(estimate)
    estimate.set_defaults(handler=_cmd_estimate)

    sweep = commands.add_parser(
        "sweep", help="batched parameter sweep of the full-chip estimate")
    _add_technology_arguments(sweep)
    sweep.add_argument("--cells", dest="cells_base", type=int, required=True,
                       help="base number of cells (a 'cells' axis "
                            "overrides this per point)")
    sweep.add_argument("--width-mm", type=float, required=True)
    sweep.add_argument("--height-mm", type=float, required=True)
    sweep.add_argument("--usage", action="append", metavar="NAME=FRAC",
                       help="usage fraction (repeatable; default uniform)")
    sweep.add_argument("--axis", action="append", required=True,
                       metavar="NAME=V1,V2,...",
                       help="sweep axis (repeatable; axes form a "
                            f"cartesian grid); names: {', '.join(_SWEEP_AXES)}")
    sweep.add_argument("--signal-probability", type=float, default=0.5)
    sweep.add_argument("--method", default="auto",
                       choices=["auto", "linear", "integral2d", "polar",
                                "exact"])
    sweep.add_argument("--n-jobs", type=int, default=1,
                       help="process fan-out across geometry groups")
    sweep.add_argument("--json", action="store_true",
                       help="print the raw sweep JSON")
    _add_trace_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    selfcheck = commands.add_parser(
        "selfcheck", help="validate the installation in a few seconds")
    selfcheck.set_defaults(handler=_cmd_selfcheck)

    corners = commands.add_parser(
        "corners", help="leakage at the FF/TT/SS process corners")
    _add_technology_arguments(corners)
    corners.add_argument("--cells", type=int, required=True)
    corners.add_argument("--width-mm", type=float, required=True)
    corners.add_argument("--height-mm", type=float, required=True)
    corners.add_argument("--usage", action="append", metavar="NAME=FRAC")
    corners.add_argument("--method", default="auto",
                         choices=["auto", "linear", "integral2d", "polar"])
    corners.set_defaults(handler=_cmd_corners)

    iscas = commands.add_parser(
        "iscas85", help="run the late-mode flow on an ISCAS85 benchmark")
    _add_technology_arguments(iscas)
    iscas.add_argument("circuit", help="benchmark name, e.g. c432")
    iscas.add_argument("--seed", type=int, default=1985)
    iscas.set_defaults(handler=_cmd_iscas85)

    serve = commands.add_parser(
        "serve", help="run the long-running estimation service (HTTP API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="estimation worker threads (-1: one per CPU)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="max queued jobs before 429 backpressure")
    serve.add_argument("--cache-dir", default=None,
                       help="directory for the persistent result cache "
                            "(default: in-memory only)")
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="per-tier in-memory LRU entry bound")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-job deadline [s]")
    serve.add_argument("--replicas", type=int, default=1,
                       help="run this many full service replicas behind "
                            "a consistent-hash routing front (1 = the "
                            "single in-process server)")
    serve.add_argument("--worker-mode", choices=("thread", "process"),
                       default="thread",
                       help="compute in scheduler threads or in "
                            "supervised OS-process workers "
                            "(crash-only serving)")
    serve.add_argument("--cache-shards", type=int, default=8,
                       help="shard count of the --cache-dir layout "
                            "(every process sharing it must agree)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       help="seconds to let in-flight requests finish "
                            "on SIGTERM before stopping (default 10)")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault-injection spec for chaos testing, "
                            "e.g. 'worker.crash:0.2:3,cache.read:0.5' "
                            "(default: REPRO_FAULTS env var, else off)")
    serve.add_argument("--faults-seed", type=int, default=0,
                       help="seed for the fault-injection RNG streams")
    serve.set_defaults(handler=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit one estimate to a running service")
    _add_technology_arguments(submit)
    submit.add_argument("--url", default="http://127.0.0.1:8080",
                        help="service base URL")
    submit.add_argument("--cells", type=int, required=True)
    submit.add_argument("--width-mm", type=float, required=True)
    submit.add_argument("--height-mm", type=float, required=True)
    submit.add_argument("--usage", action="append", metavar="NAME=FRAC",
                        help="usage fraction (repeatable; default uniform)")
    submit.add_argument("--cell", action="append", metavar="NAME",
                        help="characterize only these cells "
                             "(repeatable; default full library)")
    submit.add_argument("--signal-probability", type=float, default=0.5)
    submit.add_argument("--method", default="auto",
                        choices=["auto", "linear", "integral2d", "polar",
                                 "exact"])
    submit.add_argument("--n-jobs", type=int, default=1)
    submit.add_argument("--tolerance", type=float, default=0.0)
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority (higher runs first)")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job deadline [s]")
    submit.add_argument("--no-degraded", dest="allow_degraded",
                        action="store_false",
                        help="fail instead of accepting the RG fallback "
                             "when an exact run degrades")
    submit.add_argument("--async", dest="async_", action="store_true",
                        help="return a job id immediately instead of "
                             "waiting for the result")
    submit.add_argument("--json", action="store_true",
                        help="print the raw estimate JSON")
    _add_trace_arguments(submit)
    submit.set_defaults(handler=_cmd_submit)

    whatif = commands.add_parser(
        "whatif", help="incremental what-if estimate against a recorded "
                       "base (delta engine)")
    whatif.add_argument("--url", default="http://127.0.0.1:8080",
                        help="service base URL")
    whatif.add_argument("--base", required=True,
                        help="content hash of a previously served "
                             "estimate (the 'key' of its request)")
    whatif.add_argument("--edit", action="append", metavar="JSON",
                        help="edit document, e.g. "
                             "'{\"type\": \"cell_swap\", \"from_cell\": "
                             "\"INV_X1\", \"to_cell\": \"INV_X2\", "
                             "\"fraction\": 0.1}' (repeatable)")
    whatif.add_argument("--swap", action="append",
                        metavar="FROM:TO[:FRACTION]",
                        help="shorthand for a cell_swap edit (repeatable)")
    whatif.add_argument("--cells", type=int, default=None,
                        help="floorplan_resize: new cell count")
    whatif.add_argument("--width-mm", type=float, default=None,
                        help="floorplan_resize: new die width [mm]")
    whatif.add_argument("--height-mm", type=float, default=None,
                        help="floorplan_resize: new die height [mm]")
    whatif.add_argument("--priority", type=int, default=0,
                        help="scheduling priority (higher runs first)")
    whatif.add_argument("--timeout", type=float, default=None,
                        help="per-job deadline [s]")
    whatif.add_argument("--json", action="store_true",
                        help="print the raw estimate JSON")
    whatif.set_defaults(handler=_cmd_whatif)
    return parser


#: Errors that mean the user's input or configuration is wrong: exit 1.
_USER_ERRORS = (ConfigurationError, NetlistError, UnknownBaseError)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; exit code 0 on success, 1 on a user or
    configuration error, 2 on an internal error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - an internal error, not a crash
        traceback.print_exc()
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
