"""Command-line interface for the repro toolkit.

Subcommands cover the full life of a deployment:

``repro generate``
    Synthesise a controlled update log for a target expression (the
    paper's Section 5.1 generator), optionally with insert/delete churn.
``repro ingest``
    One-pass build of sketch synopses from an update log, checkpointed to
    a directory.
``repro query``
    Estimate set-expression cardinalities from a checkpoint — no access
    to the original stream.
``repro plan``
    Synopsis sizing for a target (ε, δ) from the paper's space bounds.
``repro simplify``
    Analyse and canonicalise a set expression (satisfiability, Venn
    cells, minimal-ish equivalent form).
``repro exact``
    Ground-truth cardinalities by exact replay of an update log.
``repro experiment``
    Regenerate the paper's figures (delegates to
    ``repro.experiments.run_all``).
``repro serve``
    Run the asyncio coordinator server: accept delta exports from sites
    over TCP, fold them by sketch linearity, checkpoint periodically.
``repro ship``
    Replay an update log through a site client, shipping delta exports
    to a running coordinator every N updates.

Example session::

    repro generate --expression "(A - B) & C" --union-size 100000 \
        --target-ratio 0.25 --churn 0.5 --out /tmp/updates.log.gz
    repro ingest --log /tmp/updates.log.gz --checkpoint /tmp/synopses \
        --sketches 256
    repro query --checkpoint /tmp/synopses --expression "(A - B) & C" \
        --explain
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all subcommands (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="2-level hash sketches: set-expression cardinality "
        "estimation over update streams (SIGMOD 2003 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="synthesise a controlled update log"
    )
    generate.add_argument("--expression", required=True, help='e.g. "(A - B) & C"')
    generate.add_argument("--union-size", type=int, default=1 << 14)
    generate.add_argument("--target-ratio", type=float, default=0.25)
    generate.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="phantom insert+delete pairs per real element (0 = insert-only)",
    )
    generate.add_argument("--domain-bits", type=int, default=30)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=pathlib.Path, required=True)

    ingest = subparsers.add_parser(
        "ingest", help="build synopses from an update log"
    )
    ingest.add_argument("--log", type=pathlib.Path, required=True)
    ingest.add_argument("--checkpoint", type=pathlib.Path, required=True)
    ingest.add_argument("--sketches", type=int, default=256)
    ingest.add_argument("--second-level", type=int, default=16)
    ingest.add_argument("--independence", type=int, default=8)
    ingest.add_argument("--domain-bits", type=int, default=30)
    ingest.add_argument("--seed", type=int, default=0)

    def add_window_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--window-span", type=float, default=None, metavar="S",
            help="maintain sliding-window synopses over the most recent S "
            "logical time units (update index, for log replay); enables "
            "windowed queries",
        )
        sub.add_argument(
            "--bucket-width", type=float, default=None, metavar="W",
            help="window ring bucket width (S must be a whole multiple of "
            "W; default: one bucket spanning the whole window)",
        )

    add_window_arguments(ingest)

    query = subparsers.add_parser(
        "query",
        help="estimate |E| from checkpointed synopses or a live "
        "query server",
    )
    query.add_argument(
        "--checkpoint", type=pathlib.Path, default=None,
        help="checkpoint directory to query offline (or use --server)",
    )
    query.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="query a live serving front end (a coordinator started "
        "with serve --query-port) instead of a checkpoint",
    )
    query.add_argument(
        "--tenant", default=None,
        help="tenant name for --server sessions (default: public)",
    )
    query.add_argument(
        "--expression", action="append", required=True,
        help="may be given multiple times",
    )
    query.add_argument("--epsilon", type=float, default=0.1)
    query.add_argument(
        "--explain", action="store_true",
        help="also print per-subexpression estimates (checkpoint mode "
        "only)",
    )
    query.add_argument(
        "--window", type=float, default=None, metavar="T",
        help="estimate over the most recent T time units (needs a "
        "windowed engine; incompatible with --explain)",
    )

    plan = subparsers.add_parser(
        "plan", help="synopsis sizing for a target (epsilon, delta)"
    )
    plan.add_argument("--epsilon", type=float, default=0.1)
    plan.add_argument("--delta", type=float, default=0.05)
    plan.add_argument(
        "--ratio", type=float, default=0.1,
        help="smallest |E| / |union| the workload must resolve",
    )
    plan.add_argument("--streams", type=int, default=2)

    simplify = subparsers.add_parser(
        "simplify", help="analyse and canonicalise a set expression"
    )
    simplify.add_argument("--expression", required=True)

    exact = subparsers.add_parser(
        "exact", help="exact |E| from an update log (ground truth)"
    )
    exact.add_argument("--log", type=pathlib.Path, required=True)
    exact.add_argument(
        "--expression", action="append", required=True,
        help="may be given multiple times",
    )

    def add_spec_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--sketches", type=int, default=256)
        sub.add_argument("--second-level", type=int, default=16)
        sub.add_argument("--independence", type=int, default=8)
        sub.add_argument("--domain-bits", type=int, default=30)
        sub.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser(
        "serve", help="run the delta-shipping coordinator server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9431)
    add_spec_arguments(serve)
    serve.add_argument(
        "--checkpoint", type=pathlib.Path, default=None,
        help="checkpoint directory; restored from on startup if it exists",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=100,
        help="write a checkpoint every N applied deltas",
    )
    serve.add_argument(
        "--max-deltas", type=int, default=None,
        help="exit after N applied deltas (default: run until interrupted)",
    )
    serve.add_argument(
        "--parent", default=None, metavar="HOST:PORT",
        help="re-export aggregated deltas to a parent coordinator "
        "(makes this server a leaf of a federation tree)",
    )
    serve.add_argument(
        "--uplink-id", default=None,
        help="site id announced to the parent (default: leaf-<port>)",
    )
    serve.add_argument(
        "--uplink-every", type=int, default=100,
        help="auto-ship upstream every N applied deltas (0 = only at "
        "shutdown)",
    )
    serve.add_argument(
        "--encodings", default=None, metavar="ENC[,ENC...]",
        help="wire encodings accepted from v2 sites, preference first "
        "(default: sparse+zlib,sparse,dense+zlib,dense; 'dense' forces "
        "v1-style frames for every peer)",
    )
    serve.add_argument(
        "--query-port", type=int, default=None,
        help="also serve set-expression queries on this port (0 = "
        "ephemeral); see the 'repro query --server' client",
    )
    serve.add_argument(
        "--query-tenant", action="append", default=None,
        metavar="NAME[:PREFIX[:RATE]]",
        help="register a serving tenant (repeatable): stream-namespace "
        "PREFIX (empty = all streams) and token-bucket RATE in "
        "queries/s (empty = unlimited); default: one unlimited "
        "'public' tenant",
    )
    add_window_arguments(serve)

    ship = subparsers.add_parser(
        "ship", help="replay an update log through a delta-shipping site"
    )
    ship.add_argument("--log", type=pathlib.Path, required=True)
    ship.add_argument("--host", default="127.0.0.1")
    ship.add_argument("--port", type=int, default=9431)
    ship.add_argument("--site-id", required=True)
    add_spec_arguments(ship)
    ship.add_argument(
        "--every", type=int, default=100_000,
        help="updates observed between export rounds",
    )
    ship.add_argument(
        "--encodings", default=None, metavar="ENC[,ENC...]",
        help="wire encodings offered in the hello, preference first "
        "(default: sparse+zlib,sparse,dense+zlib,dense; 'dense' ships "
        "v1-style frames)",
    )
    ship.add_argument(
        "--max-batch", type=int, default=32,
        help="retained exports coalesced per delta frame on re-sync "
        "(1 disables uplink batching)",
    )
    add_window_arguments(ship)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate the paper's figures"
    )
    experiment.add_argument(
        "--scale", choices=("bench", "medium", "paper"), default="medium"
    )
    experiment.add_argument("--figure", nargs="*", default=None)
    experiment.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("experiments_output")
    )

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    from repro.datagen.controlled import generate_controlled
    from repro.datagen.updates_gen import with_phantom_deletions
    from repro.streams.sources import save_updates
    from repro.streams.updates import insertions

    rng = np.random.default_rng(args.seed)
    dataset = generate_controlled(
        args.expression,
        args.union_size,
        args.target_ratio,
        rng,
        domain_bits=args.domain_bits,
    )
    updates = []
    for name in dataset.stream_names():
        if args.churn > 0:
            updates.extend(
                with_phantom_deletions(
                    name,
                    dataset.elements[name],
                    rng,
                    phantom_fraction=args.churn,
                    domain_bits=args.domain_bits,
                )
            )
        else:
            updates.extend(
                insertions(name, (int(e) for e in dataset.elements[name]))
            )
    written = save_updates(args.out, updates)
    print(f"wrote {written:,} updates to {args.out}")
    print(f"exact |{args.expression}| = {dataset.target_size:,} "
          f"(union {dataset.union_size:,})")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.core.family import SketchSpec
    from repro.core.sketch import SketchShape
    from repro.streams.checkpoint import checkpoint_engine
    from repro.streams.engine import StreamEngine
    from repro.streams.sources import replay_into

    spec = SketchSpec(
        num_sketches=args.sketches,
        shape=SketchShape(
            domain_bits=args.domain_bits,
            num_second_level=args.second_level,
            independence=args.independence,
        ),
        seed=args.seed,
    )
    windowed = _check_window_args(args)
    progress = lambda n: print(f"  {n:,} updates ingested ...")  # noqa: E731
    if windowed:
        # Log replay has no wall clock; the update index is the logical
        # time, so --window-span/--bucket-width are measured in updates.
        from repro.streams.sources import load_updates, load_updates_csv

        engine = StreamEngine(
            spec,
            window_span=args.window_span,
            bucket_width=args.bucket_width,
        )
        is_csv = ".csv" in args.log.suffixes
        source = (
            load_updates_csv(args.log) if is_csv else load_updates(args.log)
        )
        count = engine.observe_many(
            (update, float(index))
            for index, update in enumerate(source, start=1)
        )
        checkpoint_engine(engine, args.checkpoint)
    else:
        engine = StreamEngine(spec)
        count = replay_into(args.log, engine, progress=progress)
        checkpoint_engine(engine, args.checkpoint)
    print(
        f"ingested {count:,} updates over streams "
        f"{', '.join(engine.stream_names())}; checkpoint at {args.checkpoint} "
        f"({engine.synopsis_bytes() / 1e6:.1f} MB of counters)"
    )
    return 0


def _command_query(args: argparse.Namespace) -> int:
    from repro.core.explain import explain_expression
    from repro.streams.checkpoint import restore_engine

    if (args.checkpoint is None) == (args.server is None):
        print(
            "pass exactly one of --checkpoint (offline) or --server "
            "(live query session)",
            file=sys.stderr,
        )
        return 2
    if args.server is not None:
        return _query_remote(args)
    if args.tenant is not None:
        print("--tenant only applies with --server", file=sys.stderr)
        return 2
    engine = restore_engine(args.checkpoint)
    if args.window is not None:
        if args.explain:
            print("--window and --explain are incompatible", file=sys.stderr)
            return 2
        if not engine.is_windowed:
            print(
                "this checkpoint has no window state; re-ingest with "
                "--window-span",
                file=sys.stderr,
            )
            return 2
        for expression in args.expression:
            estimate = engine.query(
                expression, args.epsilon, window=args.window
            )
            print(
                f"|{expression}| ≈ {estimate.value:,.0f} over the last "
                f"{args.window:g} time units  "
                f"(û={estimate.union_estimate:,.0f}, "
                f"{estimate.num_witnesses}/{estimate.num_valid} witnesses)"
            )
        return 0
    for expression in args.expression:
        if args.explain:
            engine.flush()
            families = {
                name: engine.family(name) for name in engine.stream_names()
            }
            explanation = explain_expression(expression, families, args.epsilon)
            print(f"|{expression}| ≈ {explanation.estimate.value:,.0f}")
            print(explanation.as_table())
        else:
            estimate = engine.query(expression, args.epsilon)
            print(
                f"|{expression}| ≈ {estimate.value:,.0f}  "
                f"(û={estimate.union_estimate:,.0f}, "
                f"{estimate.num_witnesses}/{estimate.num_valid} witnesses)"
            )
    return 0


def _query_remote(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ReproError
    from repro.streams.net.protocol import ProtocolError
    from repro.streams.serving import DEFAULT_TENANT, QueryClient

    if args.explain:
        print("--explain needs --checkpoint (offline mode)", file=sys.stderr)
        return 2
    host, _, port = args.server.rpartition(":")
    if not port.isdigit():
        print(f"--server wants HOST:PORT, got {args.server!r}", file=sys.stderr)
        return 2

    async def run() -> int:
        client = QueryClient(
            host or "127.0.0.1",
            int(port),
            tenant=args.tenant or DEFAULT_TENANT,
        )
        async with client:
            estimates = await client.query(
                list(args.expression), args.epsilon, window=args.window
            )
            for expression, estimate in zip(args.expression, estimates):
                suffix = (
                    f" over the last {args.window:g} time units"
                    if args.window is not None
                    else ""
                )
                print(
                    f"|{expression}| ≈ {estimate.value:,.0f}{suffix}  "
                    f"(û={estimate.union_estimate:,.0f}, "
                    f"{estimate.num_witnesses}/{estimate.num_valid} "
                    f"witnesses)"
                )
            position = client.last_position
            print(
                f"answered at position {position[0]:,} updates / "
                f"epoch {position[1]}"
            )
        return 0

    try:
        return asyncio.run(run())
    except (ReproError, ProtocolError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"query failed: {message}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {args.server}: {exc}", file=sys.stderr)
        return 1


def _command_plan(args: argparse.Namespace) -> int:
    from repro.core.sizing import recommend_spec

    plan = recommend_spec(
        epsilon=args.epsilon,
        delta=args.delta,
        cardinality_ratio=args.ratio,
        num_streams=args.streams,
    )
    print(plan.describe())
    return 0


def _command_simplify(args: argparse.Namespace) -> int:
    from repro.expr.optimize import is_tautology, is_unsatisfiable, simplify
    from repro.expr.parser import parse
    from repro.expr.venn import cells_of_expression

    expression = parse(args.expression)
    print(f"parsed     : {expression.to_text()}")
    print(f"streams    : {', '.join(sorted(expression.streams()))}")
    cells = cells_of_expression(expression)
    print(f"venn cells : {len(cells)}")
    if is_unsatisfiable(expression):
        print("analysis   : unsatisfiable — |E| = 0 for every input")
    elif is_tautology(expression):
        print("analysis   : equals the union of its streams")
    print(f"simplified : {simplify(expression).to_text()}")
    return 0


def _command_exact(args: argparse.Namespace) -> int:
    from repro.streams.exact import ExactStreamStore
    from repro.streams.sources import replay_into

    store = ExactStreamStore()
    count = replay_into(args.log, store)
    print(f"replayed {count:,} updates over streams {', '.join(store.streams())}")
    for expression in args.expression:
        print(f"|{expression}| = {store.cardinality(expression):,}")
    return 0


def _spec_from_args(args: argparse.Namespace):
    from repro.core.family import SketchSpec
    from repro.core.sketch import SketchShape

    return SketchSpec(
        num_sketches=args.sketches,
        shape=SketchShape(
            domain_bits=args.domain_bits,
            num_second_level=args.second_level,
            independence=args.independence,
        ),
        seed=args.seed,
    )


def _check_window_args(args: argparse.Namespace) -> bool:
    """Validate the --window-span/--bucket-width pair; True when windowed."""
    if args.bucket_width is not None and args.window_span is None:
        raise SystemExit("--bucket-width needs --window-span")
    return args.window_span is not None


def _parse_encodings(text: str | None) -> tuple:
    """``--encodings`` value -> encoding tuple (None = builtin preference)."""
    from repro.streams.net import codec

    if text is None:
        return codec.PREFERRED_ENCODINGS
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise SystemExit("--encodings needs at least one encoding name")
    unknown = sorted(set(names) - set(codec.WIRE_ENCODINGS))
    if unknown:
        raise SystemExit(
            f"unknown encoding(s) {', '.join(unknown)}; "
            f"choose from {', '.join(codec.WIRE_ENCODINGS)}"
        )
    return names


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.streams.net.coordinator import CoordinatorServer
    from repro.streams.net.site import SiteConnectionError

    encodings = _parse_encodings(args.encodings)
    windowed = _check_window_args(args)

    engine_factory = None
    if windowed:
        from repro.streams.engine import StreamEngine

        # A windowed fold target buckets incoming deltas by their
        # exports' window_at stamps, so windowed queries work at this
        # node (and at every ancestor folding its uplink).
        def engine_factory(spec):
            return StreamEngine(
                spec,
                window_span=args.window_span,
                bucket_width=args.bucket_width,
            )

    uplink_kwargs: dict = {}
    if args.parent is not None:
        parent_host, _, parent_port = args.parent.rpartition(":")
        uplink_kwargs = {
            "parent_host": parent_host or "127.0.0.1",
            "parent_port": int(parent_port),
            "uplink_id": args.uplink_id or f"leaf-{args.port}",
            "uplink_every": args.uplink_every,
        }

    serving_kwargs: dict = {}
    if args.query_port is not None:
        tenants = None
        if args.query_tenant:
            from repro.streams.serving import TenantSpec

            tenants = []
            for text in args.query_tenant:
                name, _, rest = text.partition(":")
                prefix, _, rate = rest.partition(":")
                try:
                    tenants.append(
                        TenantSpec(
                            name,
                            prefix=prefix,
                            rate=float(rate) if rate else None,
                        )
                    )
                except ValueError as exc:
                    print(f"bad --query-tenant {text!r}: {exc}",
                          file=sys.stderr)
                    return 2
        serving_kwargs = {
            "query_port": args.query_port,
            "query_options": {"tenants": tenants} if tenants else None,
        }
    elif args.query_tenant:
        print("--query-tenant needs --query-port", file=sys.stderr)
        return 2

    async def run() -> None:
        # SIGINT/SIGTERM request a clean shutdown: final checkpoint,
        # unacked uplink exports flushed upstream, connections closed,
        # stats printed.  (A backgrounded process may have SIGINT
        # ignored by the shell; SIGTERM still works.)
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform without signals, or not the main thread
        if args.checkpoint is not None and (
            args.checkpoint / "manifest.json"
        ).is_file():
            factory = engine_factory
            if windowed:
                from repro.streams.checkpoint import read_checkpoint_extra

                if "windows" in read_checkpoint_extra(args.checkpoint):
                    # A windowed checkpoint restores into its own engine,
                    # rings included; the checkpoint's window config wins
                    # over the flags.
                    factory = None
            server = CoordinatorServer.restore(
                args.checkpoint,
                host=args.host,
                port=args.port,
                checkpoint_every=args.checkpoint_every,
                engine_factory=factory,
                encodings=encodings,
                **uplink_kwargs,
                **serving_kwargs,
            )
            print(f"restored coordinator state from {args.checkpoint}")
        else:
            server = CoordinatorServer(
                _spec_from_args(args),
                host=args.host,
                port=args.port,
                checkpoint_dir=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                engine_factory=engine_factory,
                encodings=encodings,
                **uplink_kwargs,
                **serving_kwargs,
            )
        await server.start()
        print(f"coordinator listening on {server.host}:{server.port}")
        if server.query_server is not None:
            print(
                f"query server listening on {server.host}:"
                f"{server.query_port} (tenants: "
                f"{', '.join(server.query_server.tenant_names())})"
            )
        try:
            if args.max_deltas is None:
                await stop_requested.wait()
            else:
                while (
                    server.total_deltas_applied < args.max_deltas
                    and not stop_requested.is_set()
                ):
                    await asyncio.sleep(0.02)
        finally:
            if server.uplink is not None:
                # Final upstream flush: cuts a last export (through the
                # checkpoint when one is configured, persisting the
                # retained tail) and pushes everything the parent has
                # not applied.  Best-effort — an unreachable parent
                # must not block shutdown; with a checkpoint the
                # retained exports survive for the next life's re-sync.
                try:
                    await server.ship_upstream()
                except (SiteConnectionError, ConnectionError, OSError):
                    if args.checkpoint is None:
                        print("warning: parent unreachable; unshipped "
                              "uplink deltas lost (no checkpoint)")
                    else:
                        print("warning: parent unreachable; unshipped "
                              "uplink deltas retained in the checkpoint")
            if args.checkpoint is not None:
                server.checkpoint()
            await server.stop()
            if server.query_server is not None:
                for name, serving in sorted(
                    server.query_server.stats().items()
                ):
                    print(
                        f"tenant {name}: {serving.queries} queries "
                        f"({serving.items} expressions, "
                        f"{serving.batched_queries} batched), "
                        f"{serving.errors} errors "
                        f"({serving.rate_limited} rate-limited), "
                        f"{serving.bytes_in:,} bytes in / "
                        f"{serving.bytes_out:,} out"
                    )
                plans = server.query_server.plans
                print(
                    f"plan cache: {plans.parses} parses, {plans.hits} "
                    f"hits, {plans.evictions} evictions"
                )
            for site_id, stats in sorted(server.stats().items()):
                print(
                    f"{stats.role} {site_id}: "
                    f"{stats.deltas_applied} deltas applied "
                    f"({stats.exports_coalesced} coalesced), "
                    f"{stats.duplicates_dropped} duplicates dropped, "
                    f"{stats.bytes_received:,} bytes in, "
                    f"codec x{stats.compression_ratio:.1f}"
                )
            rollup = server.transport_rollup()
            print(
                f"transport total: {rollup.frames_received} frames / "
                f"{rollup.bytes_received:,} bytes in, "
                f"{rollup.frames_sent} frames / "
                f"{rollup.bytes_sent:,} bytes out, "
                f"{rollup.deltas_shipped} deltas shipped upstream"
            )
            if rollup.payload_bytes_wire:
                by_type = ", ".join(
                    f"{mtype} {nbytes:,}"
                    for mtype, nbytes in sorted(rollup.message_bytes.items())
                )
                print(
                    f"wire codec: {rollup.payload_bytes_wire:,} payload "
                    f"bytes for {rollup.payload_bytes_dense:,} dense "
                    f"(x{rollup.compression_ratio:.1f}, "
                    f"{rollup.payload_bytes_saved:,} saved); "
                    f"bytes by type: {by_type}"
                )
            streams = ", ".join(server.coordinator.stream_names()) or "<none>"
            print(
                f"served {server.total_deltas_applied} deltas over streams "
                f"{streams}; {server.checkpoints_written} checkpoints"
            )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _command_ship(args: argparse.Namespace) -> int:
    import asyncio

    from repro.streams.distributed import StreamSite
    from repro.streams.net.site import SiteClient
    from repro.streams.sources import load_updates, load_updates_csv

    is_csv = ".csv" in args.log.suffixes
    source = load_updates_csv(args.log) if is_csv else load_updates(args.log)
    windowed = _check_window_args(args)

    async def run() -> int:
        spec = _spec_from_args(args)
        site = None
        if windowed:
            from repro.streams.engine import StreamEngine

            site = StreamSite(
                args.site_id,
                spec,
                engine=StreamEngine(
                    spec,
                    window_span=args.window_span,
                    bucket_width=args.bucket_width,
                ),
            )
        client = SiteClient(
            site=site,
            site_id=None if site is not None else args.site_id,
            spec=None if site is not None else spec,
            host=args.host,
            port=args.port,
            encodings=_parse_encodings(args.encodings),
            max_batch=args.max_batch,
        )
        # Log replay has no wall clock; the update index is the logical
        # time.  In windowed mode the site cuts an export whenever an
        # update enters a new ring bucket, so every shipped delta falls
        # entirely inside one coordinator bucket and windowed queries at
        # the coordinator are bit-identical to a local windowed replay;
        # each cut is delivered at once.
        count = rounds = 0
        for update in source:
            count += 1
            if windowed:
                cuts = site.sequence
                client.observe(update, float(count))
                if site.sequence != cuts:
                    await client.flush_retained()
                    rounds += 1
            else:
                client.observe(update)
                if count % args.every == 0:
                    await client.ship()
                    rounds += 1
        await client.ship()
        rounds += 1
        await client.close()
        print(
            f"site {args.site_id}: shipped {count:,} updates in {rounds} "
            f"export rounds ({client.stats.bytes_sent:,} bytes, "
            f"{client.stats.retries} retries, "
            f"{client.stats.reconnects} reconnects)"
        )
        stats = client.stats
        print(
            f"wire codec: {stats.payload_bytes_wire:,} payload bytes for "
            f"{stats.payload_bytes_dense:,} dense "
            f"(x{stats.compression_ratio:.1f}, "
            f"{stats.payload_bytes_saved:,} saved), "
            f"{stats.exports_coalesced} exports coalesced"
        )
        return count

    asyncio.run(run())
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import main as run_all_main

    argv = ["--scale", args.scale, "--out", str(args.out)]
    if args.figure:
        argv += ["--figure", *args.figure]
    return run_all_main(argv)


_COMMANDS = {
    "generate": _command_generate,
    "ingest": _command_ingest,
    "query": _command_query,
    "plan": _command_plan,
    "simplify": _command_simplify,
    "exact": _command_exact,
    "experiment": _command_experiment,
    "serve": _command_serve,
    "ship": _command_ship,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
