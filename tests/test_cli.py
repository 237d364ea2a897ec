"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_flags(self):
        args = build_parser().parse_args(
            ["generate", "--expression", "A & B", "--out", "x.log"]
        )
        assert args.command == "generate"
        assert args.expression == "A & B"

    def test_query_accumulates_expressions(self):
        args = build_parser().parse_args(
            [
                "query",
                "--checkpoint", "ckpt",
                "--expression", "A & B",
                "--expression", "A - B",
            ]
        )
        assert args.expression == ["A & B", "A - B"]


class TestServeShipParser:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "1234", "--max-deltas", "5",
             "--checkpoint", "ckpt", "--checkpoint-every", "7"]
        )
        assert args.command == "serve"
        assert args.port == 1234
        assert args.max_deltas == 5
        assert args.checkpoint_every == 7

    def test_ship_flags(self):
        args = build_parser().parse_args(
            ["ship", "--log", "x.log", "--site-id", "edge-1", "--every", "128"]
        )
        assert args.command == "ship"
        assert args.site_id == "edge-1"
        assert args.every == 128


class TestServeShipPipeline:
    def test_serve_ship_query_round_trip(self, tmp_path, capsys):
        """A coordinator served by the CLI, fed by a CLI site, leaves a
        checkpoint the query command can answer from."""
        import socket
        import threading

        # Pre-import the net package: the serve thread and the shipping
        # main thread would otherwise race to initialise it concurrently.
        import repro.streams.net.coordinator  # noqa: F401
        import repro.streams.net.site  # noqa: F401
        from repro.streams.sources import save_updates
        from repro.streams.updates import deletions, insertions

        log = tmp_path / "edge.log"
        save_updates(
            log, insertions("A", range(64)) + deletions("A", range(8))
        )
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        checkpoint = tmp_path / "ckpt"
        spec_args = [
            "--sketches", "32", "--second-level", "8",
            "--independence", "4", "--domain-bits", "16",
        ]

        serve_result: dict[str, int] = {}

        def serve() -> None:
            serve_result["code"] = main(
                [
                    "serve",
                    "--port", str(port),
                    "--checkpoint", str(checkpoint),
                    "--checkpoint-every", "1",
                    "--max-deltas", "1",
                    *spec_args,
                ]
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            assert main(
                [
                    "ship",
                    "--log", str(log),
                    "--port", str(port),
                    "--site-id", "edge",
                    *spec_args,
                ]
            ) == 0
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert serve_result["code"] == 0
        output = capsys.readouterr().out
        assert "shipped 72 updates" in output
        assert "deltas applied" in output

        assert main(
            [
                "query",
                "--checkpoint", str(checkpoint),
                "--expression", "A",
                "--epsilon", "0.3",
            ]
        ) == 0
        assert "|A|" in capsys.readouterr().out

    def test_serve_two_level_tree(self, tmp_path, capsys):
        """A 2-level federation tree, all CLI: two leaf coordinators
        (one checkpointing, one not) re-export to a root, whose
        checkpoint answers a cross-leaf expression.  Every server runs
        its own event loop in a thread."""
        import socket
        import threading

        import repro.streams.net.coordinator  # noqa: F401
        import repro.streams.net.site  # noqa: F401
        from repro.streams.sources import save_updates
        from repro.streams.updates import insertions

        log_a = tmp_path / "edge-a.log"
        log_b = tmp_path / "edge-b.log"
        save_updates(log_a, insertions("A", range(64)))
        save_updates(log_b, insertions("B", range(32, 96)))
        ports = []
        for _ in range(3):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                ports.append(probe.getsockname()[1])
        root_port, leaf1_port, leaf2_port = ports
        root_ckpt = tmp_path / "root-ckpt"
        leaf2_ckpt = tmp_path / "leaf2-ckpt"
        spec_args = [
            "--sketches", "32", "--second-level", "8",
            "--independence", "4", "--domain-bits", "16",
        ]

        codes: dict[str, int] = {}

        def run_serve(name: str, argv: list[str]) -> threading.Thread:
            def target() -> None:
                codes[name] = main(["serve", *argv, *spec_args])

            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            return thread

        # Root exits after both leaves' shutdown flushes arrive.
        root = run_serve("root", [
            "--port", str(root_port),
            "--checkpoint", str(root_ckpt), "--checkpoint-every", "1",
            "--max-deltas", "2",
        ])
        # Leaf 1: no checkpoint (direct uplink cut).
        leaf1 = run_serve("leaf1", [
            "--port", str(leaf1_port),
            "--parent", f"127.0.0.1:{root_port}",
            "--uplink-id", "leaf-a", "--uplink-every", "0",
            "--max-deltas", "1",
        ])
        # Leaf 2: with a checkpoint (cut-inside-checkpoint).
        leaf2 = run_serve("leaf2", [
            "--port", str(leaf2_port),
            "--parent", f"127.0.0.1:{root_port}",
            "--uplink-id", "leaf-b", "--uplink-every", "0",
            "--checkpoint", str(leaf2_ckpt), "--checkpoint-every", "1",
            "--max-deltas", "1",
        ])
        try:
            for log, port, site in (
                (log_a, leaf1_port, "edge-a"),
                (log_b, leaf2_port, "edge-b"),
            ):
                assert main([
                    "ship", "--log", str(log), "--port", str(port),
                    "--site-id", site, *spec_args,
                ]) == 0
        finally:
            for thread in (leaf1, leaf2, root):
                thread.join(timeout=15)
        assert not any(t.is_alive() for t in (leaf1, leaf2, root))
        assert codes == {"root": 0, "leaf1": 0, "leaf2": 0}
        output = capsys.readouterr().out
        assert "uplink leaf-a" in output
        assert "uplink leaf-b" in output
        assert "deltas shipped upstream" in output

        # The root folded both leaves: a cross-leaf expression answers
        # from its checkpoint.
        assert main([
            "query", "--checkpoint", str(root_ckpt),
            "--expression", "A & B", "--epsilon", "0.3",
        ]) == 0
        assert "|A & B|" in capsys.readouterr().out


class TestPlanCommand:
    def test_plan_prints_recommendation(self, capsys):
        assert main(["plan", "--epsilon", "0.3", "--delta", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "sketches" in output


class TestSimplifyCommand:
    def test_reports_analysis(self, capsys):
        assert main(["simplify", "--expression", "(A & B) - (A | B)"]) == 0
        output = capsys.readouterr().out
        assert "unsatisfiable" in output
        assert "simplified" in output

    def test_redundant_stream_dropped(self, capsys):
        main(["simplify", "--expression", "(A & B) | (A - B)"])
        output = capsys.readouterr().out
        assert "simplified : A" in output


class TestExactCommand:
    def test_ground_truth_from_log(self, tmp_path, capsys):
        from repro.streams.sources import save_updates
        from repro.streams.updates import deletions, insertions

        log_path = tmp_path / "log"
        save_updates(
            log_path,
            insertions("A", [1, 2, 3])
            + insertions("B", [2, 3, 4])
            + deletions("B", [2]),
        )
        assert main(
            [
                "exact",
                "--log", str(log_path),
                "--expression", "A & B",
                "--expression", "A - B",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "|A & B| = 1" in output
        assert "|A - B| = 2" in output


class TestFullPipeline:
    def test_generate_ingest_query(self, tmp_path, capsys):
        log_path = tmp_path / "updates.log.gz"
        checkpoint = tmp_path / "synopses"

        assert main(
            [
                "generate",
                "--expression", "A & B",
                "--union-size", "2048",
                "--target-ratio", "0.5",
                "--churn", "0.25",
                "--domain-bits", "22",
                "--seed", "3",
                "--out", str(log_path),
            ]
        ) == 0
        generated = capsys.readouterr().out
        assert "wrote" in generated
        # The generator printed the exact target; recover it for checking.
        exact_value = int(
            generated.split("exact |A & B| = ")[1].split(" ")[0].replace(",", "")
        )

        assert main(
            [
                "ingest",
                "--log", str(log_path),
                "--checkpoint", str(checkpoint),
                "--sketches", "192",
                "--domain-bits", "22",
            ]
        ) == 0
        assert "ingested" in capsys.readouterr().out
        assert (checkpoint / "manifest.json").is_file()

        assert main(
            [
                "query",
                "--checkpoint", str(checkpoint),
                "--expression", "A & B",
                "--epsilon", "0.15",
            ]
        ) == 0
        queried = capsys.readouterr().out
        assert "|A & B|" in queried
        estimate = float(
            queried.split("≈ ")[1].split(" ")[0].replace(",", "")
        )
        assert abs(estimate - exact_value) / exact_value < 0.6

    def test_query_with_explain(self, tmp_path, capsys):
        log_path = tmp_path / "updates.log"
        checkpoint = tmp_path / "ckpt"
        main(
            [
                "generate",
                "--expression", "(A - B) & C",
                "--union-size", "1024",
                "--target-ratio", "0.25",
                "--domain-bits", "22",
                "--out", str(log_path),
            ]
        )
        capsys.readouterr()
        main(
            [
                "ingest",
                "--log", str(log_path),
                "--checkpoint", str(checkpoint),
                "--sketches", "128",
                "--domain-bits", "22",
            ]
        )
        capsys.readouterr()
        assert main(
            [
                "query",
                "--checkpoint", str(checkpoint),
                "--expression", "(A - B) & C",
                "--explain",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "subexpression" in output
        assert "(A - B)" in output


class TestCsvIngest:
    def test_ingest_accepts_csv_logs(self, tmp_path, capsys):
        csv_path = tmp_path / "flows.csv"
        rows = ["stream,element,delta"]
        rows += [f"R1,{i},1" for i in range(200)]
        rows += [f"R2,{i},1" for i in range(100, 300)]
        csv_path.write_text("\n".join(rows) + "\n")

        checkpoint = tmp_path / "ckpt"
        assert main(
            [
                "ingest",
                "--log", str(csv_path),
                "--checkpoint", str(checkpoint),
                "--sketches", "128",
                "--domain-bits", "20",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "query",
                "--checkpoint", str(checkpoint),
                "--expression", "R1 & R2",
                "--epsilon", "0.3",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "|R1 & R2|" in output
