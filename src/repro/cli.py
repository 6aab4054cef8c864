"""Command-line interface: regenerate any table or figure of the paper.

::

    repro-realm list                      # all named configurations
    repro-realm multiply realm16-t0 40000 50000
    repro-realm factors --m 8             # the s_ij table + LUT codes
    repro-realm table1 [--quick]          # errors + synthesis columns
    repro-realm table2                    # JPEG PSNR study
    repro-realm fig1 | fig2 | fig3 | fig4 | fig5
    repro-realm characterize realm8-t4    # one design's error metrics
    repro-realm characterize calm --trace trace.jsonl
    repro-realm telemetry summarize trace.jsonl
    repro-realm serve --port 7325         # batched TCP serving layer
    repro-realm client multiply realm16-t0 40000 50000
    repro-realm client characterize drum-k8 --samples 65536

``--quick`` shrinks the Monte-Carlo depth for fast smoke runs; the
defaults match the reproduction used in EXPERIMENTS.md.  ``--trace``
records a JSONL telemetry trace of the whole command (per-phase wall/CPU
timings, warehouse/retry counters — see ``repro.analysis.telemetry``), and
``telemetry summarize`` renders one as a per-phase table.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

from . import experiments, paper
from .analysis import telemetry
from .analysis.distribution import ascii_histogram
from .analysis.montecarlo import characterize
from .analysis.profiles import ascii_heatmap
from .analysis.runtime import ResiliencePolicy
from .multipliers.registry import build, names

QUICK_SAMPLES = 1 << 18


def _samples(args) -> int:
    return QUICK_SAMPLES if args.quick else args.samples


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _known_design(args) -> "object":
    """Build ``args.design``, or exit 2 with a readable message.

    An unknown design id is a usage error, not a crash: the CLI answers
    with the same message the library's ``KeyError`` carries, plus the
    hint, on stderr.
    """
    try:
        return build(args.design)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        print("hint: 'repro-realm list' shows all design ids", file=sys.stderr)
        raise SystemExit(2) from None


def _engine_options(args) -> dict:
    """Monte-Carlo engine knobs shared by the characterization commands."""
    return {
        "workers": getattr(args, "workers", None),
        "progress": _progress_printer(args),
        "policy": _resilience_policy(args),
        "checkpoint": getattr(args, "checkpoint", False),
        "warehouse": _warehouse_option(args),
    }


def _resilience_policy(args):
    """One ``ResiliencePolicy`` from ``--max-retries``/``--batch-timeout``,
    or ``None`` (the engine's default) when neither is given."""
    fields = {
        name: value
        for name in ("max_retries", "batch_timeout")
        if (value := getattr(args, name, None)) is not None
    }
    return ResiliencePolicy(**fields) if fields else None


def _warehouse_option(args):
    """The experiment-warehouse argument from ``--warehouse``/``--no-warehouse``."""
    if getattr(args, "no_warehouse", False):
        return False
    return getattr(args, "warehouse", None)


#: how a progress event's ``cache`` outcome prints
_OUTCOMES = {"warehouse": "reused", "miss": "computed, recorded", "off": "computed"}


def _progress_printer(args):
    if not getattr(args, "progress", False):
        return None

    def emit(event):
        kind = event.get("event")
        if kind == "design":
            print(
                f"[{event['index']}/{event['total']}] {event['design']}: "
                f"{event['seconds']:.2f}s ({_OUTCOMES[event['cache']]})",
                file=sys.stderr,
            )
        elif kind == "done":
            rate = event.get("samples_per_sec")
            rate_text = f"  {rate / 1e6:.2f} Msamples/s" if rate else ""
            print(
                f"{event['design']}: {event['samples']} samples in "
                f"{event['seconds']:.2f}s{rate_text} ({_OUTCOMES[event['cache']]})",
                file=sys.stderr,
            )
        elif kind == "retry":
            print(
                f"{event['design']}: retrying batch@{event['batch']} "
                f"(attempt {event['attempt']}, backoff {event['delay']:.2f}s): "
                f"{event['cause']}",
                file=sys.stderr,
            )
        elif kind == "pool-rebuild":
            print(
                f"{event['design']}: rebuilding worker pool "
                f"(#{event['rebuilds']}): {event['cause']}",
                file=sys.stderr,
            )
        elif kind == "degraded":
            print(
                f"{event['design']}: degraded to serial execution after "
                f"{event['rebuilds']} pool rebuilds ({event['cause']})",
                file=sys.stderr,
            )
        elif kind == "resume":
            print(
                f"{event['design']}: resumed {event['blocks_done']} block(s) "
                f"({event['samples_done']} samples) from checkpoint",
                file=sys.stderr,
            )

    return emit


@contextlib.contextmanager
def _run_summary(samples: int | None = None):
    """Print wall time, throughput and the run's warehouse reuse on exit.

    The reused and computed design counts are this run's own
    ``warehouse.hits``/``warehouse.misses`` counters
    (:func:`~repro.analysis.telemetry.recording` works with telemetry
    off).  A throughput is printed only when something was computed:
    with the warehouse off, or with at least one design missing from it.
    """
    start = time.perf_counter()
    with telemetry.recording() as rec:
        yield
    elapsed = time.perf_counter() - start
    reused = rec.snapshot.counter("warehouse.hits")
    computed = rec.snapshot.counter("warehouse.misses")
    parts = [f"wall {elapsed:.2f}s"]
    if samples and elapsed > 0 and (computed or not reused):
        parts.append(f"{samples / elapsed / 1e6:.2f} Msamples/s/design")
    if reused or computed:
        parts.append(f"warehouse {reused} reused / {computed} computed")
    else:
        parts.append("warehouse off")
    print("# " + "  ".join(parts), file=sys.stderr)


def cmd_list(args) -> int:
    for name in names():
        print(f"{name:14s} {build(name).name}")
    return 0


def cmd_multiply(args) -> int:
    multiplier = _known_design(args)
    try:
        product = int(multiplier.multiply(args.a, args.b))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exact = args.a * args.b
    print(f"{multiplier.name}: {args.a} * {args.b} = {product}")
    if exact:
        print(f"exact {exact}, relative error {(product - exact) / exact * 100:+.4f}%")
    return 0


def cmd_factors(args) -> int:
    from .core.factors import compute_factors, compute_factors_mse, quantize_factors

    compute = compute_factors if args.objective == "mean" else compute_factors_mse
    try:
        factors = compute(args.m)
        codes = quantize_factors(factors, args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"s_ij factors for M={args.m} (objective={args.objective}):")
    print(np.array2string(factors, precision=5, suppress_small=True))
    print(f"\nquantized LUT codes (q={args.q}, value = code / {1 << args.q}):")
    print(np.array2string(codes))
    return 0


def cmd_characterize(args) -> int:
    multiplier = _known_design(args)
    with _run_summary(_samples(args)):
        metrics = characterize(multiplier, samples=_samples(args), **_engine_options(args))
    print(f"{multiplier.name}: {metrics}")
    reference = paper.TABLE1.get(args.design)
    if reference is not None:
        print(
            "paper:  bias "
            f"{reference.bias}%  ME {reference.mean_error}%  "
            f"peak [{reference.peak_min}%, {reference.peak_max}%]  "
            f"var {reference.variance}"
        )
    return 0


def cmd_table1(args) -> int:
    with _run_summary(_samples(args)):
        text = experiments.table1_text(samples=_samples(args), **_engine_options(args))
    print(text)
    return 0


def cmd_table2(args) -> int:
    print(experiments.table2_text())
    print(
        "\nNote: images are procedural stand-ins (DESIGN.md); compare the"
        " accurate-vs-approximate PSNR gaps, not the absolute values."
    )
    return 0


def cmd_fig1(args) -> int:
    for name, summary in experiments.fig1_profiles().items():
        print(
            f"\n{summary.name}  (A,B in {{32..255}}):  "
            f"ME {summary.mean_error:.2f}%  peak {summary.peak_error:.2f}%  "
            f"bias {summary.bias:+.2f}%"
        )
        print(ascii_heatmap(summary.errors, width=56))
    return 0


def cmd_fig2(args) -> int:
    data = experiments.fig2_segments(m=args.m)
    print(f"cALM per-segment mean relative error (%%), M={args.m}:")
    print(np.array2string(data["calm_segment_means"] * 100, precision=2))
    print("\nREALM per-segment mean relative error (%):")
    print(np.array2string(data["realm_segment_means"] * 100, precision=2))
    print("\nerror-reduction factors s_ij:")
    print(np.array2string(data["factors"], precision=4))
    return 0


def cmd_fig3(args) -> int:
    info = experiments.fig3_hardware(m=args.m, t=args.t)
    print(f"REALM{args.m} (t={args.t}) datapath:")
    for key in ("gate_count", "depth", "area_um2", "power_uw", "lut_entries",
                "lut_width_bits", "output_bits"):
        print(f"  {key:15s} {info[key]}")
    print("  cells:", ", ".join(f"{k}x{v}" for k, v in sorted(info["cells"].items())))
    return 0


def cmd_fig4(args) -> int:
    with _run_summary(_samples(args)):
        data = experiments.fig4_designspace(
            source=args.source, samples=_samples(args), **_engine_options(args)
        )
    print(f"design space ({args.source} synthesis numbers):")
    rows = [
        (
            p.display,
            f"{p.area_reduction:.1f}",
            f"{p.power_reduction:.1f}",
            f"{p.mean_error:.2f}",
            f"{p.peak_error:.2f}",
        )
        for p in data["plotted"]
    ]
    print(
        experiments.format_table(
            ["design", "areaR%", "powR%", "ME%", "PE%"], rows
        )
    )
    for panel, front in data["fronts"].items():
        realm = sum(1 for n in front if n.startswith("realm"))
        print(f"\nPareto front ({panel}): {realm}/{len(front)} REALM points")
        print("  " + " -> ".join(front))
    return 0


def cmd_fig5(args) -> int:
    for histogram in experiments.fig5_histograms(samples=_samples(args)):
        print(f"\n{histogram.name}: spread {histogram.spread():.2f}%  "
              f"mode {histogram.mode_center():+.2f}%")
        print(ascii_histogram(histogram))
    return 0


def cmd_verilog(args) -> int:
    import numpy as np

    from .circuits.catalog import netlist_of
    from .kernels.netlist import compile_netlist
    from .logic.verilog import testbench, to_verilog

    netlist = netlist_of(_known_design(args))
    text = to_verilog(netlist)
    if args.testbench:
        rng = np.random.default_rng(0)
        width = len(netlist.inputs) // 2
        a = rng.integers(0, 1 << width, args.vectors)
        b = rng.integers(0, 1 << width, args.vectors)
        buses = [netlist.inputs[:width], netlist.inputs[width:]]
        golden = compile_netlist(netlist).evaluate_words(buses, [a, b])
        text += "\n\n" + testbench(netlist, buses, [a, b], golden)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text)
    return 0


def cmd_report(args) -> int:
    if args.design is not None:
        from .circuits.catalog import netlist_of
        from .synth.report import design_report

        print(design_report(netlist_of(_known_design(args))))
        return 0
    from .warehouse import (
        WarehouseError, build_trends, open_warehouse, render_json, render_text,
    )

    warehouse = _warehouse_option(args)
    wh = open_warehouse(True if warehouse is None else warehouse)
    if wh is None:
        print(
            "no experiment warehouse available (pass --warehouse DIR or set "
            "REPRO_WAREHOUSE_DIR / REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 1
    try:
        trends = build_trends(wh, kind=args.kind, limit=args.limit)
    except WarehouseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        wh.close()
    sys.stdout.write(render_json(trends) if args.json else render_text(trends))
    return 0


def cmd_theory(args) -> int:
    from .core.theory import predict_metrics

    for m in (4, 8, 16):
        theory = predict_metrics(m, q=args.q)
        print(
            f"REALM{m:2d} (q={args.q}): bias {theory.bias:+.3f}%  "
            f"ME {theory.mean_error:.3f}%  var {theory.variance:.3f}  "
            f"peaks [{theory.peak_min:.2f}%, {theory.peak_max:.2f}%]"
        )
    return 0


def cmd_nn(args) -> int:
    from .experiments import format_table
    from .nn import evaluate_multipliers, float_accuracy, logit_distortion, trained_setup

    designs = args.designs or [
        "accurate", "realm16-t0", "realm4-t9", "mbm-t0", "calm", "drum-k8",
    ]
    data, params = trained_setup()
    print(f"float reference accuracy: {float_accuracy(data, params):.3f}\n")
    accuracy = evaluate_multipliers(designs)
    distortion = logit_distortion(designs)
    rows = [
        (build(name).name, f"{accuracy[name]:.3f}", f"{distortion[name]:.2f}")
        for name in designs
    ]
    print(format_table(["multiplier", "accuracy", "logit distortion %"], rows))
    return 0


def cmd_cnn(args) -> int:
    from .experiments import cnn_text

    print(cnn_text(args.designs or None, warehouse=_warehouse_option(args)))
    return 0


def cmd_fir(args) -> int:
    from .dsp import fir_filter, lowpass_taps, multitone_signal, output_snr_db, quantize_q15
    from .experiments import format_table

    designs = args.designs or [
        "realm16-t0", "realm8-t8", "realm4-t9", "mbm-t0", "calm", "drum-k8",
    ]
    taps = quantize_q15(lowpass_taps(63, 0.2))
    signal = quantize_q15(multitone_signal(4096))
    reference = fir_filter(build("accurate"), signal, taps)
    rows = [
        (
            build(name).name,
            f"{output_snr_db(reference, fir_filter(build(name), signal, taps)):.1f}",
        )
        for name in designs
    ]
    print(format_table(["multiplier", "SNR dB"], rows))
    return 0


def cmd_divide(args) -> int:
    from .extensions.divider import MitchellDivider, RealmDivider

    try:
        divider = (
            MitchellDivider()
            if args.m is None
            else RealmDivider(m=args.m, q=args.q)
        )
        quotient = int(divider.divide(args.a, args.b))
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{divider.name}: {args.a} / {args.b} = {quotient}")
    exact = args.a / args.b
    if exact:
        print(
            f"exact {exact:.3f}, relative error "
            f"{(quotient - exact) / exact * 100:+.3f}%"
        )
    return 0


def cmd_explore(args) -> int:
    from .experiments import format_table
    from .explore import Constraints, explore

    constraints = Constraints(
        max_mean_error=args.max_me,
        max_peak_error=args.max_pe,
        max_bias=args.max_bias,
        min_area_reduction=args.min_area,
        min_power_reduction=args.min_power,
    )
    results = explore(
        constraints,
        objective=args.objective,
        include_realm_grid=args.grid,
        samples=QUICK_SAMPLES if args.quick else 1 << 19,
        top=args.top,
    )
    if not results:
        print("no feasible configuration under these constraints")
        return 1
    rows = [
        (
            c.display,
            f"{c.metrics.mean_error:.2f}",
            f"{c.peak_error:.2f}",
            f"{c.metrics.bias:+.2f}",
            f"{c.area_reduction:.1f}",
            f"{c.power_reduction:.1f}",
        )
        for c in results
    ]
    print(
        format_table(
            ["design", "ME%", "PE%", "bias%", "areaR%", "powR%"], rows
        )
    )
    return 0


def _serve_engine_options(args) -> dict:
    """Characterize-engine kwargs the serve command forwards per request."""
    engine: dict = {}
    warehouse = _warehouse_option(args)
    if warehouse is not None:
        engine["warehouse"] = warehouse
    policy = _resilience_policy(args)
    if policy is not None:
        engine["policy"] = policy
    return engine


def _serve_probe(args) -> int:
    """``repro-realm serve --probe``: /healthz-style readiness check.

    Sends one ``status`` request; exit 0 when the endpoint reports
    ready, 1 otherwise (unreachable, draining, or fleet exhausted).
    """
    import json

    from .serve import ServeError, request_once

    try:
        response = request_once(
            args.host, args.port, {"op": "status"}, timeout=5.0
        )
    except ServeError as exc:
        print(f"not ready: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"not ready: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    result = response["result"]
    print(json.dumps(result, sort_keys=True))
    return 0 if result.get("ready") else 1


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from .serve import (
        BatchPolicy,
        ProcessShard,
        Service,
        ShardConfig,
        Supervisor,
        TcpServer,
    )

    if args.probe:
        return _serve_probe(args)

    policy = BatchPolicy(
        max_batch=args.max_batch,
        max_latency=args.max_latency_ms / 1000.0,
        max_queue=args.max_queue,
    )
    supervisor = None
    if args.shards > 1:
        shards = [
            ProcessShard(
                ShardConfig(
                    f"shard-{index}",
                    policy=policy,
                    workers=args.workers,
                    engine=_serve_engine_options(args),
                )
            )
            for index in range(args.shards)
        ]
        front = supervisor = Supervisor(shards)
    else:
        front = Service(
            policy=policy,
            workers=args.workers,
            engine=_serve_engine_options(args),
        )

    async def run() -> None:
        if supervisor is not None:
            await supervisor.up()
        server = TcpServer(front, args.host, args.port)
        await server.start()
        host, port = server.address
        flavour = (
            f"{args.shards} supervised shards" if supervisor is not None
            else "single service"
        )
        print(
            f"repro-realm serving on {host}:{port} ({flavour}, max_batch "
            f"{policy.max_batch}, max_latency "
            f"{policy.max_latency * 1000:.1f}ms, max_queue {policy.max_queue})",
            file=sys.stderr,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if supervisor is not None:
            # zero-downtime reconfig: SIGHUP replaces shards one at a time
            def hup() -> None:
                print("rolling restart ...", file=sys.stderr)
                loop.create_task(supervisor.rolling_restart())

            try:
                loop.add_signal_handler(signal.SIGHUP, hup)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            print("draining ...", file=sys.stderr)
            await server.close()
            print("stopped", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # signal handler unavailable (rare platforms)
        pass
    return 0


def cmd_client(args) -> int:
    from .serve import ServeError, request_once

    command = args.client_command
    if command == "multiply":
        payload = {
            "op": "multiply",
            "design": args.design,
            "a": args.a,
            "b": args.b,
            "bitwidth": args.bitwidth,
        }
    elif command == "characterize":
        payload = {
            "op": "characterize",
            "design": args.design,
            "bitwidth": args.bitwidth,
            "samples": args.samples,
            "seed": args.seed,
        }
    elif command == "designs":
        payload = {"op": "designs", "prefix": args.prefix}
    elif command == "status":
        payload = {"op": "status"}
    else:
        payload = {"op": "ping"}
    try:
        response = request_once(args.host, args.port, payload, timeout=args.timeout)
    except ServeError as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(
            f"cannot reach {args.host}:{args.port}: {exc} "
            "(is 'repro-realm serve' running?)",
            file=sys.stderr,
        )
        return 1
    result = response["result"]
    if command == "multiply":
        products = result["products"]
        for a, b, product in zip([args.a], [args.b], products[:1]):
            print(f"{args.design}: {a} * {b} = {product}")
            exact = a * b
            if exact:
                print(
                    f"exact {exact}, relative error "
                    f"{(product - exact) / exact * 100:+.4f}%"
                )
    elif command == "characterize":
        metrics = result["metrics"]
        print(
            f"{args.design}: bias {metrics['bias']:+.2f}%  "
            f"ME {metrics['mean_error']:.2f}%  "
            f"peak [{metrics['peak_min']:.2f}%, {metrics['peak_max']:.2f}%]  "
            f"var {metrics['variance']:.2f}  ({metrics['samples']} samples)"
        )
    elif command == "designs":
        for entry in result["designs"]:
            print(f"{entry['id']:14s} {entry['name']}")
    else:
        print(result)
    return 0


def cmd_conform(args) -> int:
    from .conformance import fuzz, render_json, render_text
    from .conformance.oracles import LAYERS

    if args.layers:
        unknown = sorted(set(args.layers) - set(LAYERS))
        if unknown:
            print(
                f"error: unknown layer(s) {', '.join(unknown)}; "
                f"choose from {', '.join(LAYERS)}",
                file=sys.stderr,
            )
            return 2
    try:
        result = fuzz(
            args.design,
            args.budget,
            args.seed,
            bitwidth=args.bitwidth,
            layers=args.layers or None,
            m=args.m,
            on_progress=_conform_progress(args),
            warehouse=_warehouse_option(args),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        print("hint: 'repro-realm list' shows all design ids", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(render_json(result))
        print(f"# JSON report written to {args.json}", file=sys.stderr)
    print(render_text(result), end="")
    return 0 if result.ok else 2


def cmd_formal(args) -> int:
    import json

    from .formal import certify_worst_error, prove_equivalence
    from .formal.encode import UnsupportedDesignError

    if not args.prove_equiv and not args.max_error:
        print(
            "error: nothing to do; pass --prove-equiv and/or --max-error",
            file=sys.stderr,
        )
        return 2
    payloads = []
    exit_code = 0
    try:
        if args.prove_equiv:
            result = prove_equivalence(
                args.design,
                args.bitwidth,
                backend=args.backend,
                samples=args.samples,
                seed=args.seed,
            )
            payloads.append(result.to_payload())
            print(f"equivalence {result.design} @ {result.bitwidth}-bit")
            for leg in result.legs:
                line = f"  {leg.leg:14s} {leg.status}"
                if leg.backend:
                    line += f" [{leg.backend}]"
                if leg.witness is not None:
                    line += f" witness a={leg.witness[0]} b={leg.witness[1]}"
                if leg.detail:
                    line += f" ({leg.detail})"
                print(line)
            if result.refuted:
                exit_code = 2
            elif not result.proved:
                exit_code = max(exit_code, 1)
        if args.max_error:
            bounds = certify_worst_error(
                args.design, args.bitwidth, method=args.method
            )
            payloads.append(bounds.to_payload())
            print(
                f"worst-case error {bounds.design} @ {bounds.bitwidth}-bit "
                f"via {bounds.method}"
            )
            for cert in (bounds.peak_min, bounds.peak_max):
                quality = "exact" if cert.exact else "sound bound"
                replay = "replayed" if cert.replayed else "REPLAY FAILED"
                print(
                    f"  peak_{cert.direction}: {cert.error_percent:+.6f}% "
                    f"({quality}, {replay}) witness a={cert.a} b={cert.b} "
                    f"err={cert.witness_num}/{cert.witness_den}"
                )
            if not bounds.replayed:
                exit_code = 2
    except UnsupportedDesignError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        print("hint: 'repro-realm list' shows all design ids", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if payloads:
        _record_certificates(payloads, args)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payloads, handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"# JSON report written to {args.json}", file=sys.stderr)
    return exit_code


def _record_certificates(payloads, args) -> None:
    """Record a ``repro formal`` run in the experiment warehouse, if on."""
    from .warehouse import Session

    rows = []
    for payload in payloads:
        description = {
            "kind": "formal",
            "certificate": payload.get("kind"),
            "design": payload.get("design", args.design),
            "bitwidth": payload.get("bitwidth"),
        }
        rows.append(
            (payload.get("design", args.design), description, payload, False)
        )
    with Session(_warehouse_option(args), "formal") as store:
        store.record(rows, seed=getattr(args, "seed", None))
    if store.error is not None:
        print(f"# warehouse recording failed: {store.error}", file=sys.stderr)


def _conform_progress(args):
    if not getattr(args, "progress", False):
        return None

    def emit(event):
        print(
            f"round {event['round']}: {event['pairs']} pairs, "
            f"{event['coverage']:.1%} cells, "
            f"{event['divergences']} divergence(s)",
            file=sys.stderr,
        )

    return emit


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-realm",
        description="Reproduce the REALM paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _warehouse_flags(p):
        p.add_argument(
            "--warehouse",
            nargs="?",
            const=True,
            default=None,
            metavar="DIR",
            help="record this run in the experiment warehouse and reuse "
            "stored results by fingerprint (bare flag: $REPRO_WAREHOUSE_DIR "
            "or <cache>/warehouse; default: only if $REPRO_WAREHOUSE_DIR is "
            "set)",
        )
        p.add_argument(
            "--no-warehouse",
            action="store_true",
            help="disable the experiment warehouse",
        )

    def sample_flags(p):
        p.add_argument(
            "--samples", type=_positive_int, default=experiments.DEFAULT_SAMPLES
        )
        p.add_argument("--quick", action="store_true", help="small Monte-Carlo run")
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write a JSONL telemetry trace of this run to PATH "
            "(summarize it with 'repro-realm telemetry summarize PATH')",
        )

    def common(p):
        sample_flags(p)
        p.add_argument(
            "--workers",
            type=_positive_int,
            default=None,
            help="parallel worker processes for the Monte-Carlo engine",
        )
        p.add_argument(
            "--max-retries",
            type=_nonnegative_int,
            default=None,
            help="re-executions allowed per failed batch (default 2)",
        )
        p.add_argument(
            "--batch-timeout",
            type=_positive_float,
            default=None,
            metavar="SECONDS",
            help="seconds to wait for one parallel batch before declaring "
            "the worker hung and rebuilding the pool",
        )
        p.add_argument(
            "--checkpoint",
            action="store_true",
            help="persist per-block state under $REPRO_CACHE_DIR (else the "
            "user cache dir) and resume from a matching checkpoint, so a "
            "rerun after an interruption skips the blocks already finished",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="print per-design progress/throughput to stderr",
        )
        _warehouse_flags(p)

    sub.add_parser("list").set_defaults(func=cmd_list)

    p = sub.add_parser("multiply")
    p.add_argument("design")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("factors")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--q", type=int, default=6)
    p.add_argument("--objective", choices=("mean", "mse"), default="mean")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("characterize")
    p.add_argument("design")
    common(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("table1")
    common(p)
    p.set_defaults(func=cmd_table1)

    sub.add_parser("table2").set_defaults(func=cmd_table2)
    sub.add_parser("fig1").set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2")
    p.add_argument("--m", type=int, default=4)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--t", type=int, default=0)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4")
    p.add_argument("--source", choices=("paper", "model"), default="paper")
    common(p)
    p.set_defaults(func=cmd_fig4)

    # fig5's histograms run outside the Monte-Carlo engine: no engine knobs
    p = sub.add_parser("fig5")
    sample_flags(p)
    p.set_defaults(func=cmd_fig5)

    p = sub.add_parser("verilog", help="export a design as structural Verilog")
    p.add_argument("design")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument(
        "--testbench",
        action="store_true",
        help="append a self-checking testbench with golden vectors",
    )
    p.add_argument("--vectors", type=int, default=64)
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser(
        "report",
        help="warehouse trend report (no argument), or the area/power/"
        "timing report for one design",
    )
    p.add_argument(
        "design", nargs="?", default=None,
        help="design id for a synthesis report; omit for warehouse trends",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the trends as byte-stable JSON instead of text tables",
    )
    p.add_argument(
        "--kind", default=None,
        choices=("characterize", "workload", "sweep", "table1", "conformance",
                 "formal", "cnn"),
        help="only runs of this kind",
    )
    p.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="only the most recent N runs",
    )
    _warehouse_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("theory", help="closed-form REALM error predictions")
    p.add_argument("--q", type=int, default=6)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("nn", help="quantized-MLP accuracy per multiplier")
    p.add_argument("designs", nargs="*")
    p.set_defaults(func=cmd_nn)

    p = sub.add_parser(
        "cnn", help="fixed-point CNN accuracy-vs-area study (full registry)"
    )
    p.add_argument("designs", nargs="*")
    _warehouse_flags(p)
    p.set_defaults(func=cmd_cnn)

    p = sub.add_parser("fir", help="FIR filtering SNR per multiplier")
    p.add_argument("designs", nargs="*")
    p.set_defaults(func=cmd_fir)

    p = sub.add_parser("divide", help="approximate division (extension)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--m", type=int, help="REALM-style correction segments")
    p.add_argument("--q", type=int, default=None, help="correction precision")
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser(
        "serve", help="batched TCP serving of multiply/characterize/designs"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_nonnegative_int, default=7325,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument(
        "--shards", type=_positive_int, default=1,
        help="worker shard processes; >1 serves through the supervised "
        "fleet (consistent-hash routing, heartbeats, automatic restart; "
        "SIGHUP triggers a zero-downtime rolling restart)",
    )
    p.add_argument(
        "--probe", action="store_true",
        help="/healthz-style readiness check against a running server: "
        "send one status request, exit 0 if ready, 1 otherwise",
    )
    p.add_argument(
        "--max-batch", type=_positive_int, default=1 << 12,
        help="operand pairs fused into one model evaluation",
    )
    p.add_argument(
        "--max-latency-ms", type=_nonnegative_float, default=2.0,
        help="longest a request waits for co-batching, milliseconds",
    )
    p.add_argument(
        "--max-queue", type=_positive_int, default=1 << 14,
        help="queued pairs before requests are shed with 'overloaded'",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker processes reused across characterize requests",
    )
    p.add_argument(
        "--max-retries", type=_nonnegative_int, default=None,
        help="per-batch retry budget for characterize requests",
    )
    p.add_argument(
        "--batch-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-batch timeout for characterize requests",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL telemetry trace (serve.batch spans, shed "
        "counters, queue-depth gauges) to PATH",
    )
    _warehouse_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "conform",
        help="coverage-guided differential fuzzing across model/RTL/kernel/"
        "serve/formal/exact layers; exits 2 on any divergence",
    )
    p.add_argument(
        "--design", required=True,
        help="registry id, or an ad-hoc REALM spec like 'realm-16-m4-q5'",
    )
    p.add_argument(
        "--budget", type=_positive_int, default=1 << 16,
        help="operand-pair budget (stops early on full coverage)",
    )
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument(
        "--layers", nargs="+", default=None, metavar="LAYER",
        help="layers to cross-check (model rtl kernel serve formal exact); "
        "default: all available for the design",
    )
    p.add_argument(
        "--bitwidth", type=_positive_int, default=None,
        help="operand bitwidth (default: the design's own)",
    )
    p.add_argument(
        "--m", type=_positive_int, default=None,
        help="segment grid for the coverage map (default: the design's M)",
    )
    p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the deterministic JSON report to PATH",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="print per-round coverage progress to stderr",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL telemetry trace (conform.eval/conform.shrink "
        "spans) to PATH",
    )
    _warehouse_flags(p)
    p.set_defaults(func=cmd_conform)

    p = sub.add_parser(
        "formal",
        help="equivalence proofs and exact worst-case error certificates; "
        "exits 2 on any refuted claim, 1 when a claim stays unknown",
    )
    p.add_argument(
        "--design", required=True,
        help="registry id, or an ad-hoc REALM spec like 'realm-16-m4-q3'",
    )
    p.add_argument(
        "--bitwidth", type=_positive_int, default=None,
        help="operand bitwidth (default: the design's own)",
    )
    p.add_argument(
        "--prove-equiv", action="store_true",
        help="prove model~RTL~kernel agreement through the backend ladder",
    )
    p.add_argument(
        "--max-error", action="store_true",
        help="certify the exact worst-case relative error with a replayed "
        "(a*, b*, err*) witness",
    )
    p.add_argument(
        "--backend", choices=("z3", "bdd", "exhaustive"), default=None,
        help="pin one equivalence backend instead of the ladder",
    )
    p.add_argument(
        "--method", choices=("sweep", "smt", "interval"), default=None,
        help="pin the worst-case-error route (default: by width and "
        "backend availability)",
    )
    p.add_argument(
        "--samples", type=_positive_int, default=4096,
        help="operand pairs for sampled validation legs",
    )
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the certificates as JSON to PATH",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL telemetry trace (formal.encode/formal.solve "
        "spans) to PATH",
    )
    _warehouse_flags(p)
    p.set_defaults(func=cmd_formal)

    p = sub.add_parser("client", help="talk to a running 'repro-realm serve'")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_positive_int, default=7325)
    p.add_argument("--timeout", type=_positive_float, default=30.0)
    csub = p.add_subparsers(dest="client_command", required=True)
    cp = csub.add_parser("multiply")
    cp.add_argument("design")
    cp.add_argument("a", type=int)
    cp.add_argument("b", type=int)
    cp.add_argument("--bitwidth", type=int, default=16)
    cp = csub.add_parser("characterize")
    cp.add_argument("design")
    cp.add_argument("--bitwidth", type=int, default=16)
    cp.add_argument("--samples", type=_positive_int, default=1 << 16)
    cp.add_argument("--seed", type=_nonnegative_int, default=2020)
    cp = csub.add_parser("designs")
    cp.add_argument("--prefix", default="")
    csub.add_parser("ping")
    csub.add_parser("status")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "telemetry", help="inspect JSONL telemetry traces"
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    ts = tsub.add_parser(
        "summarize", help="per-phase time/counter table from a trace"
    )
    ts.add_argument("path", help="a trace file or a directory of *.jsonl files")
    ts.set_defaults(func=cmd_telemetry_summarize)

    p = sub.add_parser(
        "explore", help="search the design space under error/cost budgets"
    )
    p.add_argument("--max-me", type=float, help="max mean error %%")
    p.add_argument("--max-pe", type=float, help="max peak error %%")
    p.add_argument("--max-bias", type=float, help="max |bias| %%")
    p.add_argument("--min-area", type=float, help="min area reduction %%")
    p.add_argument("--min-power", type=float, help="min power reduction %%")
    p.add_argument(
        "--objective", choices=("power", "area", "error"), default="power"
    )
    p.add_argument(
        "--grid", action="store_true", help="include the extended REALM grid"
    )
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_explore)

    return parser


def cmd_telemetry_summarize(args) -> int:
    import pathlib

    source = pathlib.Path(args.path)
    if not source.exists():
        print(f"no trace at {source}", file=sys.stderr)
        return 1
    print(telemetry.format_summary(telemetry.summarize_trace(source)))
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "no_warehouse", False) and getattr(args, "warehouse", None) is not None:
        parser.error("--warehouse and --no-warehouse are mutually exclusive")
    trace = getattr(args, "trace", None)
    if trace is not None:
        with telemetry.tracing(trace):
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
