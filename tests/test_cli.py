import numpy as np
import pytest

from cfcent.cli import EXIT_ERROR, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_UNDEFINED_METRIC, main


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def body_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestScore:
    def test_p3_sp_scores(self, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("0 1\n1 2\n")
        code, text = run_cli(
            ["--command", "score", "--input", str(path), "--measure", "sp",
             "--query", "all"],
            tmp_path,
        )
        assert code == EXIT_OK
        rows = body_lines(text)
        assert rows[0] == "node,score"
        scores = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert scores["0"] == pytest.approx(2.0 / 3.0)
        assert scores["1"] == pytest.approx(1.0)
        assert scores["2"] == pytest.approx(2.0 / 3.0)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["--command", "score", "--gen", "ba:300,2", "--measure", "cf_sampling",
                "--pivots", "8", "--query", "random:40", "--seed", "17"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert body_lines(first) == body_lines(second)

    @pytest.mark.parametrize(
        "flags",
        [
            # grid:12 has 144 nodes and ~20 sketch rows: one block, no pool
            ["--gen", "grid:12", "--measure", "cf_projection", "--epsilon", "0.5",
             "--query", "random:20"],
            # multigrid-sized graphs with more than one 64-column block, so
            # four threads run the blocks of a chunk in the pool
            ["--gen", "ba:1500,3", "--measure", "cf_sampling", "--query", "random:150"],
            ["--gen", "ba:400,3", "--measure", "cf_exact", "--query", "all"],
        ],
        ids=["cf_projection", "cf_sampling", "cf_exact"],
    )
    def test_threads_do_not_change_scores(self, tmp_path, flags):
        base = ["--command", "score", "--seed", "3"] + flags
        code_a, a = run_cli(base + ["--threads", "1"], tmp_path, "a.csv")
        code_b, b = run_cli(base + ["--threads", "4"], tmp_path, "b.csv")
        assert code_a == code_b == EXIT_OK
        assert body_lines(a) == body_lines(b)

    def test_header_records_measure_and_residual(self, tmp_path):
        code, text = run_cli(
            ["--command", "score", "--gen", "path:50", "--measure", "cf_exact",
             "--query", "random:5", "--seed", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        header = text.splitlines()[0]
        assert "measure=cf_exact" in header
        assert "max_residual=" in header
        assert "seed=1" in header

    def test_original_labels_in_output(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("10 20\n20 30\n")
        code, text = run_cli(
            ["--command", "score", "--input", str(path), "--measure", "degree",
             "--query", "all"],
            tmp_path,
        )
        nodes = [row.split(",")[0] for row in body_lines(text)[1:]]
        assert nodes == ["10", "20", "30"]

    def test_lcc_taken_before_scoring(self, tmp_path):
        path = tmp_path / "two_comp.txt"
        path.write_text("0 1\n1 2\n8 9\n")
        code, text = run_cli(
            ["--command", "score", "--input", str(path), "--measure", "sp",
             "--query", "all"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert len(body_lines(text)) == 1 + 3

    def test_non_utf8_input_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 1\n1 2\xff\n")
        code = main(["--command", "score", "--input", str(path), "--measure", "degree",
                     "--query", "all"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"cfcent: {path}: ")
        assert err.count("\n") == 1

    def test_missing_input_is_error(self, tmp_path):
        code = main(["--command", "score", "--input", str(tmp_path / "nope.txt"),
                     "--measure", "sp"])
        assert code != EXIT_OK

    def test_sampling_on_ten_thousand_nodes_meets_residual(self, tmp_path):
        code, text = run_cli(
            ["--command", "score", "--gen", "ba:10000,3", "--measure", "cf_sampling",
             "--pivots", "20", "--query", "random:50", "--seed", "9",
             "--threads", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        header = text.splitlines()[0]
        residual = float(header.split("max_residual=")[1])
        assert residual <= 1e-5
        assert len(body_lines(text)) == 1 + 50

    def test_query_list_uses_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("10 20\n20 30\n")
        code, text = run_cli(
            ["--command", "score", "--input", str(path), "--measure", "sp",
             "--query", "list:20,30"],
            tmp_path,
        )
        nodes = [row.split(",")[0] for row in body_lines(text)[1:]]
        assert nodes == ["20", "30"]


class TestCompare:
    def test_exact_vs_exact_is_perfect(self, tmp_path):
        code, text = run_cli(
            ["--command", "compare", "--gen", "ba:150,2", "--measure", "cf_exact",
             "--query", "random:25", "--seed", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        row = body_lines(text)[1].split(",")
        assert row[0] == "cf_exact"
        assert float(row[2]) == pytest.approx(1.0)   # spearman
        assert int(row[3]) == 0                       # inversions
        assert float(row[5]) == pytest.approx(1.0)    # max relative error

    def test_exact_measure_reuses_the_reference(self, tmp_path, monkeypatch):
        import cfcent.cli as cli

        calls = []
        real = cli.cf_closeness_exact

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "cf_closeness_exact", counting)
        code, text = run_cli(
            ["--command", "compare", "--gen", "ba:150,2", "--measure", "cf_exact",
             "--query", "random:25", "--seed", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert len(calls) == 1
        row = body_lines(text)[1].split(",")
        assert row[0] == "cf_exact"
        assert row[6] == row[7]   # the reference time is reported for both

    def test_exact_reference_solves_the_second_cover(self, tmp_path, monkeypatch):
        # The compare-exact benchmark graph: exact closeness solves the 340
        # nodes of its second cover, projection one row per sketch row.
        import cfcent.cli as cli

        hierarchies, exact_solves = [], []
        real_setup, real_exact = cli.setup, cli.cf_closeness_exact

        def keep(*args, **kwargs):
            hierarchies.append(real_setup(*args, **kwargs))
            return hierarchies[-1]

        def counting(hierarchy, *args, **kwargs):
            before = hierarchy.stats.solves
            table = real_exact(hierarchy, *args, **kwargs)
            exact_solves.append(hierarchy.stats.solves - before)
            return table

        monkeypatch.setattr(cli, "setup", keep)
        monkeypatch.setattr(cli, "cf_closeness_exact", counting)
        code, text = run_cli(
            ["--command", "compare", "--gen", "ba:1000,3", "--measure", "cf_projection",
             "--query", "all"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert body_lines(text)[1].split(",")[1].startswith("epsilon=0.2;k=173;")
        assert exact_solves == [340]
        assert [h.stats.solves for h in hierarchies] == [340 + 173]

    def test_inversion_column_is_a_percentage_of_pairs(self, tmp_path):
        code, text = run_cli(
            ["--command", "compare", "--gen", "ba:200,2", "--measure", "sp,degree",
             "--query", "random:30", "--seed", "4"],
            tmp_path,
        )
        assert code == EXIT_OK
        pairs = 30 * 29 // 2
        for line in body_lines(text)[1:]:
            row = line.split(",")
            assert int(row[3]) > 0
            assert float(row[4]) == pytest.approx(100 * int(row[3]) / pairs, rel=1e-11)

    def test_default_runs_both_estimators(self, tmp_path):
        code, text = run_cli(
            ["--command", "compare", "--gen", "ba:200,2", "--query", "random:20",
             "--seed", "4", "--pivots", "10", "--epsilon", "0.5"],
            tmp_path,
        )
        assert code == EXIT_OK
        methods = [row.split(",")[0] for row in body_lines(text)[1:]]
        assert methods == ["cf_sampling", "cf_projection"]


class TestNoise:
    def test_control_row_is_one_and_shape(self, tmp_path):
        code, text = run_cli(
            ["--command", "noise", "--gen", "ba:200,2", "--query", "random:15",
             "--seed", "6", "--pivots", "8"],
            tmp_path,
        )
        assert code == EXIT_OK
        rows = [r.split(",") for r in body_lines(text)[1:]]
        # one row per (measure, fraction); two measures, five fractions
        assert len(rows) == 2 * 5
        for measure, fraction, value in rows:
            if float(fraction) == 0.0:
                assert float(value) == pytest.approx(1.0)
            assert -1.0 <= float(value) <= 1.0


class TestDegreeCorr:
    def test_regular_graph_reports_na(self, tmp_path):
        code, text = run_cli(
            ["--command", "degree-corr", "--gen", "clique:30", "--query", "all",
             "--seed", "0", "--pivots", "5"],
            tmp_path,
        )
        assert code == EXIT_UNDEFINED_METRIC
        rows = body_lines(text)[1:]
        assert all(row.endswith(",NA") for row in rows)

    def test_ba_graph_strong_positive_correlation(self, tmp_path):
        code, text = run_cli(
            ["--command", "degree-corr", "--gen", "ba:400,3", "--query", "random:60",
             "--seed", "5"],
            tmp_path,
        )
        assert code == EXIT_OK
        values = {r.split(",")[0]: float(r.split(",")[1]) for r in body_lines(text)[1:]}
        assert values["cf_sampling"] > 0.5

    def test_grid_correlates_less_than_ba(self, tmp_path):
        _, grid_text = run_cli(
            ["--command", "degree-corr", "--gen", "grid:20", "--query", "random:60",
             "--seed", "5"],
            tmp_path, "grid.csv",
        )
        _, ba_text = run_cli(
            ["--command", "degree-corr", "--gen", "ba:400,3", "--query", "random:60",
             "--seed", "5"],
            tmp_path, "ba.csv",
        )
        grid_cf = float(body_lines(grid_text)[2].split(",")[1])
        ba_cf = float(body_lines(ba_text)[2].split(",")[1])
        assert grid_cf < ba_cf

    @pytest.mark.parametrize("measure", ["foo", "cf_sampling", "sp,cf_exact"])
    def test_measure_fails_before_loading_and_output(
        self, measure, tmp_path, monkeypatch, capsys
    ):
        # degree-corr always scores sp and cf_sampling; a --measure it
        # ignored would label its rows with measures that were never run.
        import cfcent.cli as cli

        def no_graph(*args, **kwargs):
            raise AssertionError("the graph was loaded before --measure was checked")

        monkeypatch.setattr(cli, "_load_graph", no_graph)
        out = tmp_path / "out.csv"
        code = main(["--command", "degree-corr", "--gen", "ba:300,2", "--measure", measure,
                     "--query", "random:50", "--seed", "1", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert not out.exists() and captured.out == ""
        assert captured.err.startswith("cfcent: --measure must be omitted")


class TestSeed:
    def test_hierarchy_does_not_depend_on_seed(self, tmp_path, monkeypatch):
        # --seed draws the estimators' samples only: every setup the CLI and
        # the experiments run takes the Laplacian and tau, and score at two
        # seeds builds one hierarchy bit for bit on a graph that aggregates.
        import cfcent.cli as cli
        import cfcent.evaluation as evaluation
        from cfcent.solver import LevelKind
        from conftest import hierarchy_arrays

        calls, hierarchies = [], []

        def spy(real):
            def keep(*args, **kwargs):
                calls.append((len(args), sorted(kwargs)))
                hierarchies.append(real(*args, **kwargs))
                return hierarchies[-1]
            return keep

        monkeypatch.setattr(cli, "setup", spy(cli.setup))
        monkeypatch.setattr(evaluation, "setup", spy(evaluation.setup))
        for seed in ("1", "2"):
            code, _ = run_cli(
                ["--command", "score", "--gen", "grid:40", "--measure", "cf_projection",
                 "--epsilon", "0.5", "--query", "random:20", "--seed", seed],
                tmp_path,
            )
            assert code == EXIT_OK
        scored = hierarchies[:]
        for command in ("compare", "noise", "degree-corr"):
            code, _ = run_cli(
                ["--command", command, "--gen", "ba:60,2", "--query", "random:10",
                 "--pivots", "5", "--seed", "3"],
                tmp_path,
            )
            assert code == EXIT_OK, command
        # score twice, compare once, noise on the graph and 4 perturbations,
        # degree-corr for cf_sampling.
        assert calls == [(1, ["tau"])] * 9
        assert any(lvl.kind is LevelKind.AGGREGATION for lvl in scored[0].levels)
        got, want = hierarchy_arrays(scored[0]), hierarchy_arrays(scored[1])
        assert got.keys() == want.keys()
        for key, array in got.items():
            assert array.dtype == want[key].dtype and np.array_equal(array, want[key]), key


class TestExitCodes:
    def test_unreachable_tolerance_exits_2(self, tmp_path, capsys):
        # A tolerance far below machine precision cannot be met by any solve.
        code, _ = run_cli(
            ["--command", "score", "--gen", "path:30", "--tau", "1e-300",
             "--measure", "cf_sampling", "--pivots", "4", "--query", "list:0,1"],
            tmp_path,
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "failed to reach tau" in capsys.readouterr().err

    def test_tied_scores_exit_3(self, tmp_path, capsys):
        # The leaves of a star tie, so their rank correlation is undefined.
        code, _ = run_cli(
            ["--command", "noise", "--gen", "star:50", "--measure", "cf_sampling",
             "--query", "list:1,2,3"],
            tmp_path,
        )
        assert code == EXIT_UNDEFINED_METRIC
        assert "all values tied" in capsys.readouterr().err


class TestArgumentHandling:
    def test_gen_specs(self, tmp_path):
        for gen in ("path:30", "grid:5", "star:9", "clique:6", "ba:40,2", "er:60,0.1"):
            code, text = run_cli(
                ["--command", "score", "--gen", gen, "--measure", "degree",
                 "--query", "all", "--seed", "0"],
                tmp_path, f"{gen.replace(':', '_').replace(',', '_')}.csv",
            )
            assert code == EXIT_OK, gen

    def test_bad_gen_spec(self):
        assert main(["--command", "score", "--gen", "torus:9", "--measure", "sp"]) != 0

    def test_input_and_gen_mutually_exclusive(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        code = main(["--command", "score", "--input", str(path), "--gen", "path:5",
                     "--measure", "sp"])
        assert code != EXIT_OK

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, threads, capsys):
        code = main(["--command", "score", "--gen", "path:5", "--measure", "cf_exact",
                     "--query", "all", "--threads", threads])
        assert code == EXIT_ERROR
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--query", "random:abc"], "bad --query spec"),
            (["--query", "list:1,x"], "bad --query spec"),
            (["--query", "random:3", "--seed", "-1"], "--seed must be >= 0"),
        ],
        ids=["random-count-not-a-number", "list-label-not-a-number", "negative-seed"],
    )
    def test_bad_values_exit_with_a_message(self, flags, message, capsys):
        code = main(["--command", "score", "--gen", "path:5", "--measure", "sp"] + flags)
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"cfcent: {message}")

    @pytest.mark.parametrize(
        "command, query",
        [("score", "random:abc"), ("compare", "list:1,x")],
        ids=["score", "compare"],
    )
    def test_bad_query_fails_before_setup(self, command, query, monkeypatch, capsys):
        import cfcent.cli as cli

        def no_setup(*args, **kwargs):
            raise AssertionError("setup ran before the query was parsed")

        monkeypatch.setattr(cli, "setup", no_setup)
        code = main(["--command", command, "--gen", "path:5", "--measure", "cf_exact",
                     "--query", query])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("cfcent: ")

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("score", ["--measure", "cf_projection", "--epsilon", "0"], "--epsilon"),
            ("score", ["--measure", "cf_projection", "--epsilon", "1.5"], "--epsilon"),
            ("compare", ["--epsilon", "-0.2"], "--epsilon"),
            ("compare", ["--epsilon", "nan"], "--epsilon"),
            ("score", ["--measure", "cf_sampling", "--pivots", "0"], "--pivots"),
            ("compare", ["--pivots", "-3"], "--pivots"),
            # A relative residual of 1 is met by the zero vector.
            ("score", ["--measure", "cf_exact", "--tau", "inf"], "--tau"),
            ("compare", ["--tau", "1"], "--tau"),
        ],
        ids=["eps-zero", "eps-above-one", "eps-negative", "eps-nan", "pivots-zero",
             "pivots-negative", "tau-inf", "tau-one"],
    )
    def test_bad_epsilon_or_pivots_fails_before_loading(
        self, command, flags, message, monkeypatch, capsys
    ):
        import cfcent.cli as cli

        def no_graph(*args, **kwargs):
            raise AssertionError("the graph was loaded before the flags were checked")

        monkeypatch.setattr(cli, "_load_graph", no_graph)
        monkeypatch.setattr(cli, "setup", no_graph)
        code = main(["--command", command, "--gen", "path:5", "--query", "all"] + flags)
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"cfcent: {message} must be")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("score", ["--measure", "cf_sampling"]),
            ("compare", []),
            ("noise", []),
            ("degree-corr", []),
        ],
        ids=["score", "compare", "noise", "degree-corr"],
    )
    def test_pivots_above_lcc_size_fail_before_setup_and_output(
        self, command, flags, tmp_path, monkeypatch, capsys
    ):
        import cfcent.cli as cli

        def no_setup(*args, **kwargs):
            raise AssertionError("setup ran before the pivot count was checked")

        monkeypatch.setattr(cli, "setup", no_setup)
        code, text = run_cli(
            ["--command", command, "--gen", "star:3", "--query", "all", "--pivots", "20"]
            + flags,
            tmp_path,
        )
        assert code == EXIT_ERROR
        assert text == ""
        assert capsys.readouterr().err.startswith("cfcent: --pivots must be in [1, 3]")

    @pytest.mark.parametrize(
        "command, query",
        [("compare", "random:1"), ("noise", "random:1"), ("compare", "list:3"),
         ("noise", "list:3")],
        ids=["compare-random", "noise-random", "compare-list", "noise-list"],
    )
    def test_one_query_node_fails_before_setup_and_output(
        self, command, query, tmp_path, monkeypatch, capsys
    ):
        import cfcent.cli as cli

        def no_setup(*args, **kwargs):
            raise AssertionError("setup ran before the query count was checked")

        monkeypatch.setattr(cli, "setup", no_setup)
        monkeypatch.setattr(cli, "noise_resilience", no_setup)
        code, text = run_cli(["--command", command, "--gen", "path:5", "--query", query],
                             tmp_path)
        assert code == EXIT_ERROR
        assert text == ""
        assert capsys.readouterr().err.startswith("cfcent: ranking needs at least 2")

    @pytest.mark.parametrize(
        "command, query",
        [("score", "list:1,1,2"), ("compare", "list:1,2,01")],
        ids=["score", "compare"],
    )
    def test_repeated_query_label_fails_before_setup_and_output(
        self, command, query, tmp_path, monkeypatch, capsys
    ):
        # Listed twice, a node would get two score rows and two ranks.
        import cfcent.cli as cli

        def no_setup(*args, **kwargs):
            raise AssertionError("setup ran before the query list was checked")

        monkeypatch.setattr(cli, "setup", no_setup)
        code, text = run_cli(
            ["--command", command, "--gen", "ba:300,3", "--measure", "cf_sampling",
             "--query", query],
            tmp_path,
        )
        assert code == EXIT_ERROR
        assert text == ""
        assert capsys.readouterr().err == "cfcent: query label 1 is listed twice\n"

    @pytest.mark.parametrize("command", ["score", "compare"])
    def test_pivots_above_lcc_size_accepted_without_sampling(self, command, tmp_path):
        code, text = run_cli(
            ["--command", command, "--gen", "ba:40,2", "--measure", "cf_projection",
             "--query", "all", "--pivots", "100", "--epsilon", "0.5"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert len(body_lines(text)) > 1

    def test_query_count_validated(self):
        code = main(["--command", "score", "--gen", "path:5", "--measure", "sp",
                     "--query", "random:10"])
        assert code != EXIT_OK

    def test_one_indexed_input(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1 2\n2 3\n")
        code, text = run_cli(
            ["--command", "score", "--input", str(path), "--measure", "sp",
             "--query", "all", "--one-indexed"],
            tmp_path,
        )
        assert code == EXIT_OK
        nodes = [row.split(",")[0] for row in body_lines(text)[1:]]
        assert nodes == ["1", "2", "3"]

    def test_stdout_when_no_output(self, capsys):
        code = main(["--command", "score", "--gen", "path:4", "--measure", "sp",
                     "--query", "all"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "node,score" in captured.out
