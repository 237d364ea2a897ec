#!/usr/bin/env python3
"""End-to-end benchmark: one seeded workload through the whole tree.

Three single-threaded asyncio processes per run:

* **tree** (``node.py tree``) — the system under test: a root
  ``CoordinatorServer`` serving queries and a leaf ``CoordinatorServer``
  whose uplink ships to it;
* **site** (``node.py site``) — a ``StreamSite`` behind a ``SiteClient``
  connected to the leaf, replaying the seeded inputs;
* **load** (this process) — the orchestrator and the open-loop query
  generator, on one ``QueryClient`` connection to the root.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1|2]] [--smoke] [--out DIR]
    python3 benchmarks/e2e/run.py compare BASE_DIR CHANGE_DIR

Without ``--workload`` every workload runs in turn.  ``--trace 1`` runs
with spans on and prints the per-layer metrics; a bare ``--trace`` (2)
runs untraced and traced back to back and also reports the tracing
overhead.  Every metric is printed by name and unit; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when any correctness gate
fails.  See README.md for the workloads, metrics and gates.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import pathlib
import random
import shutil
import signal
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "results"
#: The tree and site are launched this many times per run; ``setup_s``
#: is the median, and the last launch is the one measured.
SETUPS = 3
#: Lead time between sending ``start`` and the schedule's first tick.
START_DELAY_NS = 300_000_000
#: Hard limit on one workload run, set-up to exit; the run then fails.
RUN_TIMEOUT_S = 170.0
CHILD_EXIT_TIMEOUT_S = 10.0
QUERY_TIMEOUT_S = 10.0
FAULTS = ("skip-export",)
#: Process ids in the merged Chrome trace.
TRACE_PIDS = {"tree": 1, "site": 2, "load": 3}


class ChildError(RuntimeError):
    """A child process died or answered out of protocol."""


def _require_source() -> None:
    """Refuse to run without the program's source next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"run.py: no program source at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


class Child:
    """One child process in a process group of its own."""

    def __init__(self, role: str, process: asyncio.subprocess.Process) -> None:
        self.role = role
        self.process = process

    @classmethod
    async def spawn(cls, role: str, config: dict) -> "Child":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC), env.get("PYTHONPATH")) if part
        )
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            str(HERE / "node.py"),
            role,
            json.dumps(config),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            start_new_session=True,
            env=env,
            limit=1 << 26,
        )
        return cls(role, process)

    def send(self, message: dict) -> None:
        self.process.stdin.write((json.dumps(message) + "\n").encode())

    async def expect(self, event: str) -> dict:
        line = await self.process.stdout.readline()
        if not line:
            code = await self.process.wait()
            raise ChildError(
                f"{self.role} exited with code {code} while {event!r} was due"
            )
        message = json.loads(line)
        if message.get("event") != event:
            raise ChildError(
                f"{self.role} sent {message.get('event')!r}, expected {event!r}"
            )
        return message

    async def finish(self) -> int:
        """Close the child's stdin (its cue to exit) and wait; returns its
        exit code."""
        self.process.stdin.close()
        try:
            return await asyncio.wait_for(self.process.wait(), CHILD_EXIT_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.kill()
            await self.process.wait()
            return -signal.SIGKILL

    def kill(self) -> None:
        if self.process.returncode is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class Run:
    """One workload run: set-up, schedule, quiesce, gates' raw records."""

    def __init__(self, args, workload, trace: bool, run_dir, tracer, cpus) -> None:
        from tracing import pin
        from workloads import workload_for

        self.args = args
        self.workload = workload_for(workload, args.smoke)
        self.trace = trace
        self.run_dir = run_dir
        self.tracer = tracer
        self.children: list[Child] = []
        # (k, due_ns, sent_ns, done_ns) per answered query.
        self.queries: list[tuple] = []
        self.issued = 0
        self.query_failures = 0
        self.position_regressions = 0
        self._last_position = None
        self.cpus = cpus
        pin(cpus.get("load"))

    def _config(self, role: str, **extra) -> dict:
        return {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "smoke": self.args.smoke,
            "trace": self.trace,
            "fault": self.args.fault,
            "run_dir": str(self.run_dir),
            "pid": TRACE_PIDS[role],
            "cpus": self.cpus.get(role),
            **extra,
        }

    async def launch(self):
        checkpoint_dir = None
        if self.workload.checkpoint:
            checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=self.run_dir)
        tree = await Child.spawn(
            "tree", self._config("tree", checkpoint_dir=checkpoint_dir)
        )
        self.children.append(tree)
        ready = await tree.expect("ready")
        site = await Child.spawn(
            "site", self._config("site", leaf_port=ready["leaf_port"])
        )
        self.children.append(site)
        await site.expect("ready")
        tree.send({"cmd": "await_streams"})
        if not (await tree.expect("streams"))["ok"]:
            raise ChildError("the root does not know every stream after set-up")
        return tree, site, ready["query_port"]

    async def query_loop(self, client, t0: int, end: int) -> None:
        from repro.errors import ReproError
        from tracing import now_ns, sleep_until
        from workloads import EPSILON, EXPRESSIONS, STREAMS, UNION_EVERY

        windows = self.workload.query_windows
        interval = 1e9 / self.workload.query_rate
        # One query per 1/rate slot, at a seeded random offset inside its
        # slot.  Due times on an exact grid phase-lock with the site's
        # ticks (50 q/s against 12.5 ticks/s puts every fourth query at
        # the same instant after a fold), which makes p50 flip between
        # runs.
        offsets = random.Random(self.args.seed)
        k = 0
        while True:
            due = t0 + round((k + offsets.random()) * interval)
            if due >= end:
                return
            await sleep_until(due)
            window = windows[k % len(windows)] if windows else None
            sent = now_ns()
            self.issued += 1
            try:
                if k % UNION_EVERY == UNION_EVERY - 1:
                    await client.query_union(list(STREAMS), EPSILON, window=window)
                else:
                    text = EXPRESSIONS[k % len(EXPRESSIONS)]
                    await client.query(text, EPSILON, window=window)
            except (ReproError, OSError, asyncio.TimeoutError) as exc:
                print(f"load: query {k} failed: {exc!r}", file=sys.stderr)
                self.query_failures += 1
                await client.close()  # the next query reconnects
            else:
                done = now_ns()
                self.tracer.interval("streams.serving.client", sent, k)
                self.queries.append((k, due, sent, done))
                position = client.last_position
                if self._last_position is not None and position < self._last_position:
                    self.position_regressions += 1
                self._last_position = position
            k += 1

    async def served_answers(self, client) -> dict:
        from repro.streams.serving import estimate_to_dict
        from workloads import EPSILON, STREAMS, UNION_KEY, answer_keys

        answers = {}
        for key, text, window in answer_keys(self.workload):
            if text == UNION_KEY:
                estimate = await client.query_union(
                    list(STREAMS), EPSILON, window=window
                )
            else:
                estimate = await client.query(text, EPSILON, window=window)
            answers[key] = estimate_to_dict(estimate)
        return answers

    async def execute(self) -> dict:
        from repro.streams.serving import QueryClient
        from tracing import now_ns
        from workloads import phase_lengths, schedule_seconds

        setups = []
        for attempt in range(SETUPS):
            started = now_ns()
            tree, site, query_port = await self.launch()
            setups.append((now_ns() - started) / 1e9)
            if attempt < SETUPS - 1:
                codes = [await site.finish(), await tree.finish()]
                self.children.clear()
                if any(codes):
                    raise ChildError(f"set-up children exited with {codes}")
        site.send({"cmd": "prepare"})
        await site.expect("prepared")
        client = QueryClient("127.0.0.1", query_port, io_timeout=QUERY_TIMEOUT_S)
        await client.connect()

        warmup, _ = phase_lengths(self.args.smoke)
        origin = now_ns()
        t0 = origin + START_DELAY_NS
        window = (
            t0 + round(warmup * 1e9),
            t0 + round((warmup + self.args.seconds) * 1e9),
        )
        end = t0 + round(
            schedule_seconds(self.workload, self.args.seconds, self.args.smoke) * 1e9
        )
        start = {
            "cmd": "start",
            "origin": origin,
            "t0": t0,
            "t_end": end,
            "window_start": window[0],
            "window_end": window[1],
        }
        for child in (tree, site):
            child.send(start)
            await child.expect("started")
        queries = asyncio.create_task(self.query_loop(client, t0, end))
        try:
            ingest = await site.expect("ingest_done")
            await queries
        finally:
            queries.cancel()
        site.send({"cmd": "quiesce"})
        site_quiesced = await site.expect("quiesced")
        tree.send({"cmd": "quiesce"})
        tree_quiesced = await tree.expect("quiesced")
        served = await self.served_answers(client)
        await client.close()
        reports = {}
        for child in (tree, site):
            child.send({"cmd": "report"})
            reports[child.role] = await child.expect("report")
        exit_codes = {child.role: await child.finish() for child in (tree, site)}
        self.children.clear()
        return {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "smoke": self.args.smoke,
            "trace": self.trace,
            "setups": setups,
            "origin": origin,
            "window": window,
            "consumed": ingest["consumed"],
            "queries": self.queries,
            "query_failures": self.query_failures,
            "position_regressions": self.position_regressions,
            "site": reports["site"],
            "tree": reports["tree"],
            "site_quiesced": site_quiesced,
            "tree_quiesced": tree_quiesced,
            "served_answers": served,
            "exit_codes": exit_codes,
        }

    async def main(self) -> dict:
        try:
            return await asyncio.wait_for(self.execute(), RUN_TIMEOUT_S)
        finally:
            for child in self.children:
                child.kill()
            for child in self.children:
                await child.process.wait()
            self.children.clear()


def _merge_trace(run_dir: pathlib.Path, data: dict, tracer) -> pathlib.Path:
    events = tracer.trace_events(data["origin"], TRACE_PIDS["load"])
    for role in ("tree", "site"):
        part = pathlib.Path(data[role]["trace_file"])
        events.extend(json.loads(part.read_text()))
        part.unlink()
    path = run_dir / "trace.json"
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    )
    return path


def run_workload(args, workload: str, trace: bool, cpus: dict) -> dict:
    """Run one workload once; returns its result record."""
    import metrics
    from node import install_layer_spans
    from repro.errors import ReproError
    from tracing import Tracer, run_loop

    run_dir = pathlib.Path(args.out) / f"{workload}-seed{args.seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer("load", trace)
    run = Run(args, workload, trace, run_dir, tracer, cpus)
    restore = install_layer_spans(tracer)
    result = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": int(trace),
    }
    try:
        data = run_loop(run.main, tracer)
    except (ChildError, ReproError, asyncio.TimeoutError, OSError, ValueError) as exc:
        # ReproError: a post-quiesce query failed; ValueError: a child
        # wrote something that is not JSON.  Unanswered queries count as
        # failed.
        print(f"[{workload}] run failed: {exc!r}", file=sys.stderr)
        attempted = max(1, run.issued)
        result.update(
            correct=False,
            attempted=attempted,
            failed=attempted - len(run.queries),
            end_to_end={},
            per_layer={},
            gates=[("completed", False, repr(exc))],
        )
        return result
    finally:
        restore()
        for leftover in run_dir.glob("ckpt-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    data["load_trace"] = tracer.summary(*data["window"]) if trace else None
    end_to_end, per_layer, gates = metrics.evaluate(data)
    if trace:
        result["trace_file"] = str(_merge_trace(run_dir, data, tracer))
    failed = data["query_failures"] + data["site"]["ship_failures"]
    attempted = run.issued + data["site"]["ships"]
    result.update(
        correct=all(passed for _, passed, _ in gates),
        attempted=max(1, attempted),
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        gates=gates,
    )
    return result


def _units(spec: dict) -> dict:
    return {
        metric["name"]: metric["unit"]
        for key in ("end_to_end", "per_layer")
        for metric in spec.get(key, [])
    }


def _print_result(result: dict, units: dict) -> None:
    tag = f"[{result['workload']}]"
    for section in ("end_to_end", "per_layer"):
        for name, value in result[section].items():
            print(f"{tag} {name:<42} {value:>16.6g} {units.get(name, '')}")
    for name, passed, detail in result["gates"]:
        print(f"{tag} gate {name:<20} {'PASS' if passed else 'FAIL'}  {detail}")


def _load_spec() -> dict:
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"run.py: cannot read {SPEC_FILE}: {exc}", file=sys.stderr)
        sys.exit(2)


def bench_main(argv) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed window per run (default 20; 2 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=2, default=0, choices=(0, 1, 2),
        help="0 untraced, 1 traced, 2 (bare --trace) both plus overhead",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--fault", choices=FAULTS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else 20.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = _load_spec()
    import metrics
    from tracing import cpu_plan

    units = _units(spec)
    cpus = cpu_plan()
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    modes = {0: (False,), 1: (True,), 2: (False, True)}[args.trace]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        results = [run_workload(args, name, trace, cpus) for trace in modes]
        for result in results:
            if result["end_to_end"] or result["per_layer"]:
                produced = result["per_layer" if result["trace"] else "end_to_end"]
                problems = metrics.check_metric_names(spec, produced, result["trace"])
                for problem in problems:
                    result["gates"].append(("declared-metrics", False, problem))
                    result["correct"] = False
            _print_result(result, units)
            path = pathlib.Path(args.out) / (
                f"{name}-seed{args.seed}-trace{result['trace']}"
            ) / "result.json"
            path.write_text(json.dumps(result, indent=2) + "\n")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
        final = results[-1]
        shown = final["per_layer"] if final["trace"] else final["end_to_end"]
        if len(results) == 2:
            # Tracing overhead: how much each end-to-end metric moved
            # with the spans on, relative to the untraced run.
            plain, traced = results[0]["end_to_end"], results[1]["end_to_end"]
            for metric, value in plain.items():
                if metric in traced and value:
                    overhead = (traced[metric] - value) / value
                    print(f"[{name}] trace overhead {metric:<28} {overhead:+.2%}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in shown.items():
            # An unmeasured metric has already failed its gate; null keeps
            # the result line valid JSON.
            combined["metrics"][prefix + metric] = {
                "value": value if math.isfinite(value) else None,
                "unit": units.get(metric, ""),
            }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def compare_main(argv) -> int:
    import metrics

    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Judge CHANGE against BASE, per workload and metric.",
    )
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = _load_spec()

    def load(directory: pathlib.Path) -> dict:
        runs: dict[str, list] = {}
        for path in sorted(directory.rglob("result.json")):
            result = json.loads(path.read_text())
            if result["trace"] == 0 and result["correct"]:
                runs.setdefault(result["workload"], []).append(
                    (result["seed"], result["end_to_end"])
                )
        return runs

    base, change = load(args.base), load(args.change)
    rows, regressed = metrics.compare(base, change, spec)
    if not rows:
        print("compare: no workload has correct untraced runs on both sides")
        return 2
    print(
        f"{'workload':<9} {'metric':<24} {'base median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30}  verdict"
    )
    for workload, metric, (bq1, bmed, bq3), (cq1, cmed, cq3), result in rows:
        print(
            f"{workload:<9} {metric:<24} {bmed:>12.5g} [{bq1:.5g}, {bq3:.5g}]"
            f"{'':>2}{cmed:>12.5g} [{cq1:.5g}, {cq3:.5g}]  {result}"
        )
    for workload in sorted(set(base) | set(change)):
        print(
            f"{workload}: {len(base.get(workload, []))} base runs, "
            f"{len(change.get(workload, []))} change runs"
        )
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _require_source()
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main())
