import builtins
import csv
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

from conftest import MALFORMED_MANIFEST_FIELDS, manifest_doc_with
from planstats import agreement, cli, dataio, hardness, pairwise, ranking
from planstats.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "data" / "sample"
RUNS = str(SAMPLE / "runs.csv")
MANIFEST = str(SAMPLE / "manifest.json")


def invoke(*args):
    return main(list(args))


def common(out_dir, *extra):
    return ["--runs", RUNS, "--manifest", MANIFEST, "--out", str(out_dir), *extra]


class TestValidateCommand:
    def test_clean_dataset(self, tmp_path, capsys):
        assert invoke("validate", *common(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_unknown_planner_exits_2(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(
            "planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length\n"
            "ghost,transport,strips,p01,1,5,,,\n"
        )
        rc = invoke("validate", "--runs", str(runs), "--manifest", MANIFEST,
                    "--out", str(tmp_path))
        assert rc == 2

    def test_malformed_runs_exits_2(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("bogus header\n")
        rc = invoke("validate", "--runs", str(runs), "--manifest", MANIFEST,
                    "--out", str(tmp_path))
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["runs", "manifest"])
    def test_input_not_utf8_exits_2(self, tmp_path, capsys, bad):
        paths = {"runs": RUNS, "manifest": MANIFEST}
        data = Path(paths[bad]).read_bytes()
        paths[bad] = tmp_path / bad
        paths[bad].write_bytes(data.replace(b"transport", b"tr\xe4nsport", 1))
        rc = invoke("validate", "--runs", str(paths["runs"]), "--manifest",
                    str(paths["manifest"]), "--out", str(tmp_path))
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "agreement"])
    @pytest.mark.parametrize("entry, key, value", MALFORMED_MANIFEST_FIELDS)
    def test_malformed_manifest_field_exits_2(self, tmp_path, capsys, command, entry, key, value):
        runs = tmp_path / "runs.csv"
        runs.write_text(",".join(dataio.RUNS_HEADER) + "\na,d,strips,p01,1,5,,3,3\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(manifest_doc_with(entry, key, value)))
        rc = invoke(command, "--runs", str(runs), "--manifest", str(manifest),
                    "--out", str(tmp_path))
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_checks_each_planner_and_level_once_not_each_record(self, tmp_path, monkeypatch):
        calls = []
        entered = dataio.Manifest.entered

        def counting(self, *args):
            calls.append(args)
            return entered(self, *args)

        monkeypatch.setattr(dataio.Manifest, "entered", counting)
        assert invoke("validate", *common(tmp_path)) == 0
        runs = list(dataio.load_runs(RUNS))
        assert len(calls) == len({(r.planner, r.level) for r in runs}) < len(runs)


class TestColumnarPath:
    def test_compare_loads_once_and_builds_no_record(self, tmp_path, monkeypatch):
        loads, records = [], []
        runs_from_bytes, record_init = dataio.runs_from_bytes, dataio.RunRecord.__init__

        def counting_load(data):
            loads.append(data)
            return runs_from_bytes(data)

        def counting_init(self, *args, **kwargs):
            records.append(args)
            record_init(self, *args, **kwargs)

        monkeypatch.setattr(dataio, "runs_from_bytes", counting_load)
        monkeypatch.setattr(cli, "runs_from_bytes", counting_load)
        monkeypatch.setattr(dataio.RunRecord, "__init__", counting_init)
        assert invoke("compare", *common(tmp_path)) == 0
        assert loads == [Path(RUNS).read_bytes()]
        assert records == []

    def test_compare_reads_each_input_once(self, tmp_path, monkeypatch):
        """The session parses and hashes the bytes of one read per file, so
        the dataset hash names the bytes analysed."""
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        # pathlib opens through io.open, open() through builtins.open
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert invoke("compare", *common(tmp_path)) == 0
        assert (opened.count(RUNS), opened.count(MANIFEST)) == (1, 1)
        header = (tmp_path / "compare_auto_strips_speed_small.txt").read_text().splitlines()
        digest = hashlib.sha256(Path(RUNS).read_bytes() + Path(MANIFEST).read_bytes())
        assert f"# dataset_sha256={digest.hexdigest()}" in header


class TestGridLayOut:
    """Validation counts coverage on the record codes and lays out no grid;
    each analysis lays out the (level, size class) grids it reads."""

    def lay_outs(self, monkeypatch, *argv):
        calls = []
        lay_out = dataio.RunTable._lay_out

        def counting(self, manifest, level, size_class):
            calls.append((level.value, size_class.value))
            return lay_out(self, manifest, level, size_class)

        monkeypatch.setattr(dataio.RunTable, "_lay_out", counting)
        assert invoke(*argv) == 0
        return calls

    def test_validate_lays_out_no_grid(self, tmp_path, monkeypatch):
        assert self.lay_outs(monkeypatch, "validate", *common(tmp_path)) == []

    def test_series_lays_out_its_grid(self, tmp_path, monkeypatch):
        argv = common(tmp_path, "--domain", "transport", "--level", "numeric")
        assert self.lay_outs(monkeypatch, "series", *argv) == [("numeric", "small")]

    def test_compare_lays_out_its_category_sizes(self, tmp_path, monkeypatch):
        # the sample's manifest with a large set per small one, which only
        # hand-coded planners face
        doc = json.loads(Path(MANIFEST).read_text())
        doc["problem_sets"] += [{**s, "size_class": "large", "problems": ["L01", "L02"]}
                                for s in doc["problem_sets"]]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        argv = ["--runs", RUNS, "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        assert self.lay_outs(monkeypatch, "compare", *argv) == [
            ("strips", "small"), ("numeric", "small")]
        assert self.lay_outs(monkeypatch, "compare", *argv, "--level", "numeric") == [
            ("numeric", "small")]

    def test_solve_time_commands_convert_only_solve_times(self, tmp_path, capsys):
        """hardness, scaling and agreement read solve times alone, so the
        session's table converts no other value field until compare reads
        them."""
        parser = cli.build_parser()
        session = cli.open_session(parser.parse_args(["validate", *common(tmp_path)]))

        def converted():
            return set(session.runs._arrays) - {"solved"}

        assert converted() == set()
        for command in ("hardness", "scaling", "agreement"):
            assert cli.run_command(session, parser.parse_args([command, *common(tmp_path)])) == 0
            assert converted() == {"time_ms"}, command
        assert cli.run_command(session, parser.parse_args(["compare", *common(tmp_path)])) == 0
        assert converted() == set(dataio.VALUE_FIELDS)


class TestPairBuilding:
    """compare and order test a cell's pairs in one pass; only magnitude
    builds a pair's values, once per pair."""

    def _count_build_pairs(self, monkeypatch):
        calls = []
        build_pairs = pairwise.build_pairs

        def counting(runs, manifest, a, b, level, measure, mode, size_class, **kwargs):
            calls.append((sys._getframe(1).f_code.co_name,
                          a, b, level.value, measure.value, size_class.value))
            return build_pairs(runs, manifest, a, b, level, measure, mode, size_class, **kwargs)

        monkeypatch.setattr(pairwise, "build_pairs", counting)
        return calls

    def test_compare_builds_each_pair_once_for_magnitude(self, tmp_path, monkeypatch):
        calls = self._count_build_pairs(monkeypatch)
        assert invoke("compare", *common(tmp_path)) == 0
        pairs = []
        for path in sorted(tmp_path.glob("compare_*.csv")):
            lines = [x for x in path.read_text().splitlines() if not x.startswith("#")]
            for row in csv.DictReader(lines):
                if row["mode"] == "at-least-one":
                    pairs.append(("magnitude", row["planner_a"], row["planner_b"],
                                  row["level"], row["measure"], row["size_class"]))
        assert pairs
        assert sorted(calls) == sorted(pairs)

    @pytest.mark.parametrize("flags", [(), ("--cross",)])
    def test_order_builds_no_pairs(self, tmp_path, monkeypatch, flags):
        calls = self._count_build_pairs(monkeypatch)
        assert invoke("order", *common(tmp_path, *flags)) == 0
        assert list(tmp_path.glob("order_*.dot"))
        assert calls == []

    @pytest.mark.parametrize("command, flags, written", [
        ("compare", (), "compare_*.txt"),
        ("order", (), "order_*.dot"),
        ("order", ("--cross",), "order_*.dot"),
    ])
    def test_one_rank_pass_per_cell(self, tmp_path, monkeypatch, command, flags, written):
        """Both pairing modes of a cell are ranked in one wilcoxon_rows call."""
        calls = []
        wilcoxon_rows = pairwise.wilcoxon_rows

        def counting(differences, n_input):
            calls.append(len(differences))
            return wilcoxon_rows(differences, n_input)

        monkeypatch.setattr(pairwise, "wilcoxon_rows", counting)
        assert invoke(command, *common(tmp_path, *flags)) == 0
        cells = list(tmp_path.glob(written))
        assert cells
        assert len(calls) == len(cells)


class TestCompareCommand:
    def test_outputs_written_with_metadata(self, tmp_path):
        assert invoke("compare", *common(tmp_path, "--level", "strips")) == 0
        text = (tmp_path / "compare_auto_strips_speed_small.txt").read_text()
        assert "# command=compare" in text
        assert "# seed=3" in text
        assert "# dataset_sha256=" in text
        assert "'*' indicates a result less than 0.001" in text
        csv_text = (tmp_path / "compare_auto_strips_speed_small.csv").read_text()
        assert "planner_a,planner_b" in csv_text
        assert (tmp_path / "magnitude_auto_strips_speed_small.csv").exists()

    def test_all_levels_when_unspecified(self, tmp_path):
        assert invoke("compare", *common(tmp_path)) == 0
        assert (tmp_path / "compare_auto_strips_speed_small.txt").exists()
        assert (tmp_path / "compare_auto_numeric_speed_small.txt").exists()

    def test_quality_measure(self, tmp_path):
        assert invoke("compare", *common(tmp_path, "--level", "numeric",
                                         "--measure", "metric")) == 0
        text = (tmp_path / "compare_auto_numeric_metric_small.txt").read_text()
        assert "double hits" in text

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert invoke("compare", *common(out1, "--level", "strips")) == 0
        assert invoke("compare", *common(out2, "--level", "strips")) == 0
        for name in ("compare_auto_strips_speed_small.txt",
                      "compare_auto_strips_speed_small.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestOrderCommand:
    def test_dot_written(self, tmp_path):
        assert invoke("order", *common(tmp_path, "--level", "strips")) == 0
        dot = (tmp_path / "order_auto_strips_speed_small.dot").read_text()
        assert "// command=order" in dot
        assert "digraph" in dot
        assert "apex -> bolt [style=solid" in dot

    def test_reduce_drops_transitive_edge(self, tmp_path):
        out1, out2 = tmp_path / "full", tmp_path / "reduced"
        invoke("order", *common(out1, "--level", "strips"))
        invoke("order", *common(out2, "--level", "strips", "--reduce"))
        full = (out1 / "order_auto_strips_speed_small.dot").read_text()
        reduced = (out2 / "order_auto_strips_speed_small.dot").read_text()
        assert "apex -> crux" in full
        assert "apex -> crux" not in reduced
        assert "apex -> bolt" in reduced
        assert "bolt -> crux" in reduced


class TestHardnessCommand:
    def test_tables_and_csv(self, tmp_path):
        assert invoke("hardness", *common(tmp_path)) == 0
        text = (tmp_path / "hardness_auto_small.txt").read_text()
        assert "level-specific pools" in text
        assert "level-independent pool" in text
        csv_text = (tmp_path / "hardness_auto_small.csv").read_text()
        assert "planner,domain,level,size_class,pool,area_ms,percentile,classification" in csv_text
        assert "independent" in csv_text

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        invoke("hardness", *common(out1))
        invoke("hardness", *common(out2, "--seed", "99"))
        a = (out1 / "hardness_auto_small.csv").read_text()
        b = (out2 / "hardness_auto_small.csv").read_text()
        assert "seed=3" in a and "seed=99" in b
        assert a != b


class TestBootstrapWordsShared:
    """Every bootstrap pool of a command reads one Philox word block per
    chunk of samples, not a block of its own."""

    @pytest.mark.parametrize("command", ["hardness", "scaling"])
    def test_one_word_block_per_chunk(self, tmp_path, monkeypatch, command):
        calls = []
        original = hardness._philox_words

        def counting(seed, index, n_blocks):
            calls.append(len(index))
            return original(seed, index, n_blocks)

        monkeypatch.setattr(hardness, "_philox_words", counting)
        B = 2 * hardness._CHUNK + 1
        cfg = tmp_path / "planstats.cfg"
        cfg.write_text(f"bootstrap_B={B}\n")
        assert invoke(command, *common(tmp_path, "--config", str(cfg))) == 0
        # both levels of the sample have a pool: a block per pool would double the calls
        sizes = dataio.sizes_faced(dataio.Category.FULLY_AUTOMATED)
        assert len(calls) == -(-B // hardness._CHUNK) * len(sizes)
        assert sum(calls) == B * len(sizes)


class TestScalingBatched:
    """A scaling command ranks a level's pair differences in one call, each
    distinct pooled difficulty in one, and each problem set's judges in
    one."""

    def test_mid_ranks_calls(self, tmp_path, monkeypatch):
        calls = []
        original = ranking.mid_ranks

        def counting(matrix):
            calls.append(len(matrix))
            return original(matrix)

        for name, module in list(sys.modules.items()):
            if name == "planstats" or name.startswith("planstats."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        assert invoke("scaling", *common(tmp_path)) == 0
        manifest = dataio.load_manifest(MANIFEST)
        # at most a difficulty and a difference ranking per level, and one
        # judge ranking per problem set
        assert 0 < len(calls) <= 2 * len(manifest.levels()) + len(manifest.problem_sets)


class TestHardnessBatched:
    """A hardness command finds each problem set's areas in one call and
    classifies each pool's subjects in one call."""

    def test_calls(self, tmp_path, monkeypatch):
        calls = {name: 0 for name in ("bootstrap_distributions", "subject_areas",
                                      "subject_area", "classify", "classify_subjects")}
        for name in calls:
            original = getattr(hardness, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(hardness, name, counting)
        assert invoke("hardness", *common(tmp_path)) == 0
        manifest = dataio.load_manifest(MANIFEST)
        sizes = dataio.sizes_faced(dataio.Category.FULLY_AUTOMATED)
        assert calls["bootstrap_distributions"] == len(sizes)
        assert 0 < calls["subject_areas"] <= sum(len(manifest.sets_at(size_class=size))
                                                 for size in sizes)
        # a pool per level and the level-independent one
        assert 0 < calls["classify_subjects"] <= (len(manifest.levels()) + 1) * len(sizes)
        assert calls["subject_area"] == calls["classify"] == 0


class TestLevelAndSizeFilters:
    def _rows(self, path):
        """A CSV output's metadata lines and its data rows."""
        lines = path.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        return header, lines[len(header) + 1:]

    def test_hardness_level(self, tmp_path):
        assert invoke("hardness", *common(tmp_path / "all")) == 0
        assert invoke("hardness", *common(tmp_path / "numeric", "--level", "numeric")) == 0
        _, all_rows = self._rows(tmp_path / "all" / "hardness_auto_small.csv")
        header, rows = self._rows(tmp_path / "numeric" / "hardness_auto_numeric_small.csv")
        assert "# level=numeric" in header
        assert rows == [row for row in all_rows if ",numeric," in row]
        assert rows and not [row for row in rows if ",strips," in row]
        assert len(rows) < len(all_rows)
        text = (tmp_path / "numeric" / "hardness_auto_numeric_small.txt").read_text()
        assert "# level=numeric" in text and "strips" not in text.split("\n\n", 1)[1]

    def test_agreement_level_and_size(self, tmp_path):
        assert invoke("agreement", *common(tmp_path, "--level", "strips", "--size", "small")) == 0
        header, rows = self._rows(tmp_path / "agreement_auto_strips_small.csv")
        assert "# level=strips" in header and "# size=small" in header
        assert rows and all(",strips,small," in row for row in rows)
        assert not (tmp_path / "agreement_auto.csv").exists()


class TestPoolsDrawn:
    """A filtered command draws only the bootstrap pools of what it reports."""

    def _kinds(self, tmp_path, monkeypatch, command, *flags):
        drawn = []
        original = hardness.bootstrap_distributions

        def recording(runs, manifest, category, pool_kinds, *args, **kwargs):
            drawn.append({kind.label for kind in pool_kinds})
            return original(runs, manifest, category, pool_kinds, *args, **kwargs)

        monkeypatch.setattr(hardness, "bootstrap_distributions", recording)
        assert invoke(command, *common(tmp_path, *flags)) == 0
        # the sample's fully-automated planners face small problems only
        (kinds,) = drawn
        return kinds

    @pytest.mark.parametrize("level", ["strips", "numeric"])
    def test_hardness_level(self, tmp_path, monkeypatch, level):
        kinds = self._kinds(tmp_path, monkeypatch, "hardness", "--level", level)
        assert kinds == {level, "independent"}

    @pytest.mark.parametrize("level", ["strips", "numeric"])
    def test_scaling_level(self, tmp_path, monkeypatch, level):
        assert self._kinds(tmp_path, monkeypatch, "scaling", "--level", level) == {level}

    def test_unfiltered(self, tmp_path, monkeypatch):
        levels = {lv.value for lv in dataio.load_manifest(MANIFEST).levels()}
        assert len(levels) > 1
        assert self._kinds(tmp_path / "h", monkeypatch, "hardness") == levels | {"independent"}
        assert self._kinds(tmp_path / "s", monkeypatch, "scaling") == levels


class TestAgreementCommand:
    def test_grid(self, tmp_path):
        assert invoke("agreement", *common(tmp_path)) == 0
        text = (tmp_path / "agreement_auto.txt").read_text()
        assert "agreement F-tests" in text
        assert "F(19,40)=" in text
        csv_text = (tmp_path / "agreement_auto.csv").read_text()
        assert "domain,level,size_class,F,df1,df2,p,significant,judges" in csv_text

    def test_level_tests_only_its_cells(self, tmp_path, monkeypatch):
        tested = []

        def counted(runs, manifest, domain, level, *args):
            tested.append(level)
            return real_test(runs, manifest, domain, level, *args)

        real_test = agreement.agreement_test
        monkeypatch.setattr(agreement, "agreement_test", counted)
        assert invoke("agreement", *common(tmp_path / "strips", "--level", "strips")) == 0
        assert tested and set(tested) == {dataio.Level.STRIPS}
        assert invoke("agreement", *common(tmp_path / "all")) == 0

        def rows(path):
            lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            return list(csv.reader(lines))

        (header, *strips), (_, *every) = (rows(tmp_path / "strips" / "agreement_auto_strips.csv"),
                                          rows(tmp_path / "all" / "agreement_auto.csv"))
        assert strips == [r for r in every if r[header.index("level")] == "strips"]
        assert len(strips) < len(every)


class TestScalingCommand:
    def test_matrix_and_csv(self, tmp_path):
        assert invoke("scaling", *common(tmp_path, "--level", "strips")) == 0
        text = (tmp_path / "scaling_auto_strips_small.txt").read_text()
        assert "relative scaling" in text
        csv_text = (tmp_path / "scaling_auto_strips_small.csv").read_text()
        assert "planner_a,planner_b,level,n,rho_z,p,verdict,domains" in csv_text
        assert "a-scales-better" in csv_text
        assert "incomparable:insufficient-agreement" in csv_text


class TestSeriesCommand:
    def test_series_csv(self, tmp_path):
        assert invoke("series", *common(tmp_path, "--domain", "transport",
                                        "--level", "strips", "--measure", "conc")) == 0
        text = (tmp_path / "series_transport_strips_conc_small.csv").read_text()
        assert "# direction=minimize" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "problem,apex,bolt,crux"
        assert len(lines) == 21
        # crux fails p17..p20: empty cells, never zeros
        assert lines[-1].startswith("p20,")
        assert lines[-1].endswith(",")

    def test_unknown_cell_exits_2(self, tmp_path, capsys):
        rc = invoke("series", *common(tmp_path, "--domain", "nosuch", "--level", "strips"))
        assert rc == 2
        assert "series: no small problem set for nosuch/strips\n" in capsys.readouterr().err

    def test_requires_level(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("series", *common(tmp_path, "--domain", "transport"))
        assert exc.value.code == 2
        assert "the following arguments are required: --level" in capsys.readouterr().err


class TestStrictMode:
    def _degenerate_dataset(self, tmp_path):
        runs = tmp_path / "runs.csv"
        header = "planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length"
        rows = [header]
        for i in range(1, 11):
            # b and c exactly 3x and 5x a with dyadic a: the normalized
            # pairs of a-b and b-c are exactly (0.5, 1.5) and (0.75, 1.25),
            # so their t-test variance is exactly zero.  a-c's (1/3, 5/3)
            # round, so does their mean difference, and its t is finite
            # (about -1.8e16).  All three judges order the problems alike:
            # infinite F
            rows.append(f"a,d,strips,p{i:02d},1,{2 ** i},,,")
            rows.append(f"b,d,strips,p{i:02d},1,{3 * 2 ** i},,,")
            rows.append(f"c,d,strips,p{i:02d},1,{5 * 2 ** i},,,")
        runs.write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "planners": [
                {"name": "a", "category": "fully-automated", "levels": ["strips"]},
                {"name": "b", "category": "fully-automated", "levels": ["strips"]},
                {"name": "c", "category": "fully-automated", "levels": ["strips"]},
            ],
            "problem_sets": [{
                "domain": "d", "level": "strips", "size_class": "small",
                "quality_direction": "minimize",
                "problems": [f"p{i:02d}" for i in range(1, 11)],
            }],
        }))
        return str(runs), str(manifest)

    def test_degenerate_statistics_escalate(self, tmp_path, capsys):
        runs, manifest = self._degenerate_dataset(tmp_path)
        args = ["--runs", runs, "--manifest", manifest, "--out", str(tmp_path),
                "--level", "strips"]
        assert main(["compare", *args]) == 0
        assert "degenerate" in capsys.readouterr().err
        assert main(["compare", *args, "--strict"]) == 3
        assert main(["agreement", *args]) == 0
        assert "degenerate" in capsys.readouterr().err
        assert main(["agreement", *args, "--strict"]) == 3

    @staticmethod
    def _column(path, name):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header, *rows = csv.reader(lines)
        return [row[header.index(name)] for row in rows]

    @staticmethod
    def _noted(err):
        (count,) = re.findall(r"^note: (\d+) degenerate statistic\(s\) encountered$", err, re.M)
        return int(count)

    def test_note_counts_the_infinite_statistics_written(self, tmp_path, capsys):
        runs, manifest = self._degenerate_dataset(tmp_path)
        args = ["--runs", runs, "--manifest", manifest, "--out", str(tmp_path)]
        assert main(["compare", *args]) == 0
        t_cells = [t for path in sorted(tmp_path.glob("magnitude_*.csv"))
                   for t in self._column(path, "t")]
        infinite = sum(t in ("inf", "-inf") for t in t_cells)
        assert self._noted(capsys.readouterr().err) == infinite == 2
        assert main(["agreement", *args]) == 0
        f_cells = self._column(tmp_path / "agreement_auto.csv", "F")
        assert self._noted(capsys.readouterr().err) == f_cells.count("inf") == 1


class TestConfigFile:
    def test_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "planstats.cfg"
        cfg.write_text("seed=77\nbootstrap_B=500\n")
        out = tmp_path / "out"
        assert invoke("hardness", *common(out, "--config", str(cfg))) == 0
        text = (out / "hardness_auto_small.csv").read_text()
        assert "# seed=77" in text
        assert "# bootstrap_B=500" in text
        out2 = tmp_path / "out2"
        assert invoke("hardness", *common(out2, "--config", str(cfg), "--seed", "5")) == 0
        assert "# seed=5" in (out2 / "hardness_auto_small.csv").read_text()

    @pytest.mark.parametrize(
        "line", ["nonsense=1", "bootstrap_B=1.5", "alpha_scaling=abc", "alpha_pairwise=0.7",
                 "output_dir=elsewhere"]
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = invoke("hardness", *common(tmp_path, "--config", str(cfg)))
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "bad.cfg:1" in err

    def test_invalid_alpha_rejected(self, tmp_path):
        rc = invoke("compare", *common(tmp_path, "--alpha", "0.7"))
        assert rc == 2


class TestMixedCategories:
    @pytest.fixture()
    def mixed_dataset(self, tmp_path):
        header = "planner,domain,level,problem,solved,time_ms,metric_value,seq_length,conc_length"
        rows = [header]
        # two automated planners on small problems, two hand-coded on both sizes
        for planner, slope, sizes in (("af", 50, "s"), ("as", 90, "s"),
                                      ("hf", 10, "sl"), ("hs", 20, "sl")):
            for prefix in ("p", "L"):
                if prefix == "L" and "l" not in sizes:
                    continue
                for i in range(1, 13):
                    rows.append(f"{planner},d,strips,{prefix}{i:02d},1,{slope * i},,,")
        runs = tmp_path / "runs.csv"
        runs.write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "planners": [
                {"name": "af", "category": "fully-automated", "levels": ["strips"]},
                {"name": "as", "category": "fully-automated", "levels": ["strips"]},
                {"name": "hf", "category": "hand-coded", "levels": ["strips"]},
                {"name": "hs", "category": "hand-coded", "levels": ["strips"]},
            ],
            "problem_sets": [
                {"domain": "d", "level": "strips", "size_class": "small",
                 "quality_direction": "minimize",
                 "problems": [f"p{i:02d}" for i in range(1, 13)]},
                {"domain": "d", "level": "strips", "size_class": "large",
                 "quality_direction": "minimize",
                 "problems": [f"L{i:02d}" for i in range(1, 13)]},
            ],
        }))
        return str(runs), str(manifest)

    def test_hand_coded_runs_both_sizes(self, tmp_path, mixed_dataset):
        runs, manifest = mixed_dataset
        rc = main(["compare", "--runs", runs, "--manifest", manifest,
                   "--category", "hand", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "compare_hand_strips_speed_small.txt").exists()
        assert (tmp_path / "compare_hand_strips_speed_large.txt").exists()

    def test_cross_category_order(self, tmp_path, mixed_dataset):
        runs, manifest = mixed_dataset
        rc = main(["order", "--runs", runs, "--manifest", manifest,
                   "--cross", "--out", str(tmp_path)])
        assert rc == 0
        dot = (tmp_path / "order_cross_strips_speed_small.dot").read_text()
        # hand-coded hf dominates the automated planners in the cross graph
        assert "hf -> af" in dot
        assert "hf -> as" in dot


def test_help_lists_measure_and_size_choices_sorted(capsys):
    with pytest.raises(SystemExit):
        invoke("compare", "--help")
    out = capsys.readouterr().out
    assert "--measure {conc,metric,seq,speed}" in out
    assert "--size {large,small}" in out


# the flags each command takes, beyond --runs --manifest --config --seed --out
COMMAND_FLAGS = {
    "validate": (),
    "compare": ("--category", "--level", "--size", "--measure", "--cross", "--alpha", "--strict"),
    "order": ("--category", "--level", "--size", "--measure", "--cross", "--alpha", "--reduce"),
    "hardness": ("--category", "--level", "--size"),
    "agreement": ("--category", "--level", "--size", "--alpha", "--strict"),
    "scaling": ("--category", "--level", "--size", "--alpha"),
    "series": ("--domain", "--level", "--size", "--measure"),
}
SESSION_FLAGS = ("--runs", "--manifest", "--config", "--seed", "--out")


class TestFlagTable:
    def _option_strings(self, command):
        (subparsers,) = cli.build_parser()._subparsers._group_actions
        return {option for action in subparsers.choices[command]._actions
                for option in action.option_strings if option not in ("-h", "--help")}

    def test_each_command_takes_its_flags(self):
        for command, flags in COMMAND_FLAGS.items():
            assert self._option_strings(command) == {*SESSION_FLAGS, *flags}, command
        assert sum(len(self._option_strings(c)) for c in COMMAND_FLAGS) == 65

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_the_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            invoke(command, "--help")
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out)) - {"--help"}
        assert listed == {*SESSION_FLAGS, *COMMAND_FLAGS[command]}

    @pytest.mark.parametrize("command, flag", [
        ("validate", ["--level", "strips"]),
        ("compare", ["--reduce"]),
        ("order", ["--strict"]),
        ("hardness", ["--alpha", "0.01"]),
        ("agreement", ["--measure", "metric"]),
        ("scaling", ["--cross"]),
        ("series", ["--category", "hand"]),
    ])
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flag):
        argv = [command, *common(tmp_path / "out", *flag)]
        if command == "series":
            argv += ["--domain", "transport", "--level", "strips"]
        with pytest.raises(SystemExit) as exc:
            invoke(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: planstats {command} ")
        assert f"planstats {command}: error: unrecognized arguments: {' '.join(flag)}" in err
        assert not (tmp_path / "out").exists()

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestFullAnalysisScript:
    def run_script(self, tmp_path, monkeypatch, manifest):
        path = ROOT / "scripts" / "run_full_analysis.py"
        spec = importlib.util.spec_from_file_location("_run_full_analysis_under_test", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(sys, "argv", ["run_full_analysis.py", "--runs", RUNS,
                                          "--manifest", str(manifest), "--out", str(tmp_path)])
        return module.main()

    def test_missing_manifest_exits_2(self, tmp_path, monkeypatch, capsys):
        assert self.run_script(tmp_path, monkeypatch, tmp_path / "nosuch.json") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert "$ planstats" not in captured.out

    def test_malformed_manifest_exits_2(self, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json")
        assert self.run_script(tmp_path, monkeypatch, manifest) == 2
        assert capsys.readouterr().err.startswith("input error: invalid JSON")

    def test_reads_the_dataset_once(self, tmp_path, monkeypatch):
        calls = {"runs_from_bytes": 0, "manifest_from_bytes": 0, "validate_dataset": 0}
        for name in calls:
            function = getattr(cli, name)

            def counting(*args, _name=name, _function=function):
                calls[_name] += 1
                return _function(*args)

            monkeypatch.setattr(cli, name, counting)
        assert self.run_script(tmp_path, monkeypatch, MANIFEST) == 0
        assert len(list(tmp_path.glob("series_*.csv"))) > 1
        assert calls == {"runs_from_bytes": 1, "manifest_from_bytes": 1, "validate_dataset": 1}
