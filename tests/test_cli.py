import doctest
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import isolation
from isolation import (canonical_form, cycle_graph, decode_g6, diamond_graph,
                       encode_g6, make_named, y_graph)
from isolation.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


# --- construct ----------------------------------------------------------------

def test_construct_diamond(capsys):
    code, out, _ = run(capsys, ["construct", "--name", "diamond"])
    assert code == 0 and out.strip() == "C}"


def test_construct_json_record(capsys):
    code, out, _ = run(capsys, ["construct", "--name", "y",
                                "--format", "json-lines"])
    rec = json_lines(out)[0]
    assert code == 0 and rec["n"] == 9
    assert decode_g6(rec["g6"]) == y_graph()


def test_construct_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, ["construct", "--name", "widget"])
    assert code == 2 and "--name" in err


@pytest.mark.parametrize("argv", [
    ["construct", "--name", "complete:20000"],
    ["bound", "--family", "k:5000", "--ratio", "1/2", "--enumerate", "3"],
])
def test_orders_above_the_cap_fail_fast(capsys, argv):
    # the order cap is checked before any row or edge is built
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("command", ["lemma5-check", "y-check"])
def test_removed_commands_are_usage_errors(capsys, command):
    # argparse's own usage errors print one error line, as every other does
    code, out, err = run(capsys, [command])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"invalid choice: '{command}'" in err


# --- solve / certify ------------------------------------------------------------

def test_solve_k4_reports_iota_one(capsys, monkeypatch):
    code, out, _ = run(capsys, ["solve", "--family", "diamond"],
                       stdin="C~\n", monkeypatch=monkeypatch)
    rec = json_lines(out)[0]
    assert code == 0
    assert rec["iota"] == 1 and rec["n"] == 4 and len(rec["witness"]) == 1


def test_solve_reads_file(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(">>graph6<<\nC~\n\nC}\n")
    code, out, _ = run(capsys, ["solve", "--input", str(path)])
    assert code == 0 and len(json_lines(out)) == 2


def test_solve_malformed_line_names_position(capsys, monkeypatch):
    code, _, err = run(capsys, ["solve"], stdin="C~\nC!\n",
                       monkeypatch=monkeypatch)
    assert code == 2
    assert err == "error: -:2: invalid graph6 character '!' (byte offset 1)\n"


def test_solve_non_ascii_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"C~\nC\xff\n")
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 2 and len(json_lines(out)) == 1
    assert err.startswith(f"error: {path}:2: invalid graph6 character ")
    assert err.endswith("(byte offset 1)\n")


def test_certify_valid_and_invalid_sets(capsys, monkeypatch):
    code, out, _ = run(capsys, ["certify", "--set", "0"],
                       stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 0 and json_lines(out)[0]["isolating"] is True
    code, out, _ = run(capsys, ["certify", "--set", ""],
                       stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 1 and json_lines(out)[0]["isolating"] is False


def test_certify_out_of_range_set(capsys, monkeypatch):
    code, _, err = run(capsys, ["certify", "--set", "7"],
                       stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 2 and "--set" in err


@pytest.mark.parametrize("vertex", [10**23, 10**10, 1024])
def test_certify_refuses_a_huge_vertex_before_building_the_set(
        capsys, monkeypatch, vertex):
    # 1 << 10**23 overflows and 1 << 10**10 takes 1.25 GB: the index is
    # refused before any shift
    code, out, err = run(capsys, ["certify", "--set", f"0,{vertex}"],
                         stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--set" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_bad_family_is_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, ["solve", "--family", "widget"],
                       stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 2 and "--family" in err


@pytest.mark.parametrize("spec", ["k:0", "k:-2"])
def test_small_clique_parameter_names_the_valid_range(capsys, monkeypatch, spec):
    # k:1 and k:2 are valid spellings, so the message names k >= 1
    code, _, err = run(capsys, ["solve", "--family", spec], stdin="C~\n",
                       monkeypatch=monkeypatch)
    assert code == 2 and "k >= 1" in err and "K1/K2" not in err


@pytest.mark.parametrize("argv", [
    ["bound", "--family", "k:2000", "--ratio", "1/2001"],
    ["solve", "--family", "k:2000"],
    ["solve", "--family", "star:1023"],
    ["solve", "--family", "book:1023"],
])
def test_family_parameters_beyond_max_vertices_are_usage_errors(
        capsys, monkeypatch, argv):
    # a pattern on more than 1024 vertices fits no graph; the bound used to
    # build K_2000 for its known exceptions and die, the solve to report 0
    code, out, err = run(capsys, argv, stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: --family") and len(err.splitlines()) == 1


# --- enumerate -------------------------------------------------------------------

def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4"])
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 6
    assert all(decode_g6(line).n == 4 for line in lines)


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "3", "--format", "json-lines"])
    records = json_lines(out)
    assert code == 0 and len(records) == 2
    assert sorted(r["g6"] for r in records) == ["Bo", "Bw"]
    assert all(r["n"] == 3 for r in records)


def test_enumerate_out_of_range(capsys):
    code, _, err = run(capsys, ["enumerate", "--n", "10"])
    assert code == 2 and "--n" in err


# --- bound ------------------------------------------------------------------------

def test_bound_finds_known_exceptions(capsys):
    code, out, _ = run(capsys, ["bound", "--family", "diamond",
                                "--ratio", "1/5", "--enumerate", "5"])
    rows = json_lines(out)
    summary = rows[-1]
    assert code == 1 and summary["summary"] is True
    keys = {canonical_form(decode_g6(g6)) for g6 in summary["exceptions"]}
    assert canonical_form(diamond_graph()) in keys and len(keys) == 2
    per_graph = rows[:-1]
    assert {r["status"] for r in per_graph} == {"ok", "extremal", "exception"}


def test_bound_allow_known_downgrades_exit(capsys):
    code, out, _ = run(capsys, ["bound", "--family", "diamond", "--ratio", "1/5",
                                "--enumerate", "5", "--quiet", "--allow-known"])
    assert code == 0
    assert len(json_lines(out)) == 1  # only the summary with --quiet


@pytest.mark.parametrize("family, ratio, extra", [
    ("diamond", "2/10", ()), ("k2", "2/6", ("--min-n", "3")), ("p3", "4/14", ()),
    ("anycycle", "2/8", ()), ("k:4", "2/10", ())])
def test_bound_allow_known_reads_the_ratio_in_lowest_terms(capsys, family, ratio,
                                                           extra):
    # each ratio is a published bound not in lowest terms, whose known
    # exceptions all occur by order 6 (K2's bound holds from order 3)
    code, out, _ = run(capsys, ["bound", "--family", family, "--ratio", ratio,
                                "--enumerate", "6", "--quiet", "--allow-known",
                                *extra])
    assert json_lines(out)[-1]["exceptions"] and code == 0


@pytest.mark.parametrize("family, ratio, order, graph", [
    ("k1", "1/2", "5", "@"), ("k2", "1/3", "6", "A_")])
def test_bound_allow_known_from_order_one(capsys, family, ratio, order, graph):
    # K_1 has an isolated vertex and K_2 order 2, so the K1 and K2 bounds
    # exclude them by hypothesis: a sweep from order 1 lists them but, with
    # --allow-known, passes
    argv = ["bound", "--family", family, "--ratio", ratio,
            "--enumerate", order, "--quiet"]
    code, out, _ = run(capsys, argv + ["--allow-known"])
    assert code == 0 and graph in json_lines(out)[-1]["exceptions"]
    code, out, _ = run(capsys, argv)
    assert code == 1 and graph in json_lines(out)[-1]["exceptions"]


def test_bound_allow_known_still_fails_on_novel_exception(capsys, monkeypatch):
    # C5 violates the K2 1/4 ratio but is not among its known exceptions
    code, _, _ = run(capsys, ["bound", "--family", "k2", "--ratio", "1/4",
                              "--quiet", "--allow-known"],
                     stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 1


def test_bound_explicit_known_flag(capsys, monkeypatch):
    code, _, _ = run(capsys, ["bound", "--family", "k2", "--ratio", "1/4",
                              "--quiet", "--allow-known", "--known", "Dhc"],
                     stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 0


def test_bound_known_long_cycle_returns_promptly(capsys, monkeypatch):
    # C24 is an exception to the K1 1/4 ratio (iota 8 > 6); both --known and
    # the exception check take its canonical form, which a search without
    # automorphism pruning takes factorial time to find on a long cycle
    c24 = encode_g6(cycle_graph(24))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["bound", "--family", "k1", "--ratio", "1/4",
                                "--quiet", "--allow-known", "--known", c24],
                       stdin=c24 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json_lines(out)[-1]["exceptions"] == [c24]
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("argv, stdin, expected", [
    # k:1024's default exception is K_1024, whose canonical form takes
    # seconds, and a 4-vertex graph holds no copy of it
    (["--family", "k:1024", "--ratio", "1/1025"], "C~", 0),
    (["--family", "k:1024", "--ratio", "1/1025", "--allow-known"], "C~", 0),
    # C5 is an exception to the K2 1/4 ratio, but without --allow-known the
    # exit code is 1 whatever the known exceptions are
    (["--family", "k2", "--ratio", "1/4", "--known", "Dhc"], "Dhc", 1),
])
def test_bound_keys_known_exceptions_only_when_they_decide(
        capsys, monkeypatch, argv, stdin, expected):
    import isolation.enumerate_verify

    calls = []
    for module in (isolation.cli, isolation.enumerate_verify):
        monkeypatch.setattr(module, "canonical_form", calls.append)
    code, _, _ = run(capsys, ["bound", "--quiet"] + argv, stdin=stdin + "\n",
                     monkeypatch=monkeypatch)
    assert code == expected
    assert calls == []


def test_bound_rejects_a_bad_known_value_before_the_sweep(capsys, monkeypatch):
    code, out, err = run(capsys, ["bound", "--family", "k2", "--ratio", "1/3",
                                  "--known", "D!c"],
                         stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 2 and out == "" and err.startswith("error: --known")


def test_bound_ratio_validation(capsys):
    code, _, err = run(capsys, ["bound", "--family", "diamond",
                                "--ratio", "1/0", "--enumerate", "3"])
    assert code == 2 and "--ratio" in err


def test_bound_min_n_skips_low_orders(capsys):
    code, out, _ = run(capsys, ["bound", "--family", "k2", "--ratio", "1/3",
                                "--enumerate", "5", "--min-n", "3", "--quiet",
                                "--allow-known"])
    summary = json_lines(out)[-1]
    assert code == 0
    keys = {canonical_form(decode_g6(g6)) for g6 in summary["exceptions"]}
    assert keys == {canonical_form(decode_g6("Dhc"))}  # the 5-cycle
    assert set(summary["checked_by_n"]) == {"3", "4", "5"}


def test_bound_pool_keeps_input_order(capsys):
    # the pool path: two workers, results still in input order
    code, out, _ = run(capsys, ["bound", "--family", "diamond",
                                "--ratio", "1/5", "--enumerate", "4",
                                "--allow-known", "--workers", "2"])
    rows = json_lines(out)
    assert code == 0 and rows[-1]["checked"] == 10
    _, serial, _ = run(capsys, ["bound", "--family", "diamond", "--ratio", "1/5",
                                "--enumerate", "4", "--allow-known"])
    assert [r["g6"] for r in rows[:-1]] == [r["g6"] for r in json_lines(serial)[:-1]]


class _RecordingPool:
    """Stand-in for ``multiprocessing.Pool`` that records its size and maps
    in this process, so no worker process starts."""

    built: list[int] = []

    def __init__(self, processes):
        self.built.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return list(map(fn, items))


@pytest.mark.parametrize("workers", ["0", "-3", str(10**6)])
def test_bound_workers_are_range_checked(capsys, monkeypatch, workers):
    # below 1 is a usage error before any pool is built; a huge count is cut
    # to the CPU count and gives the serial run's records
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "built", [])
    argv = ["bound", "--family", "diamond", "--ratio", "1/5",
            "--enumerate", "5", "--allow-known"]
    code, out, err = run(capsys, argv + ["--workers", workers])
    if int(workers) < 1:
        assert code == 2 and out == "" and "--workers" in err
        assert _RecordingPool.built == []
        return
    assert code == 0 and _RecordingPool.built == [2]
    _, serial, _ = run(capsys, argv)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed"}
                          for r in rows]
    assert strip(json_lines(out)) == strip(json_lines(serial))


@pytest.mark.parametrize("alias,ratio,label", [
    ("book:2", "1/5", "diamond"),
    ("star:1", "2/7", "p3"),
    ("book:1", "1/4", "k:3"),
])
def test_bound_alias_spellings_share_known_exceptions(capsys, alias, ratio, label):
    code, out, _ = run(capsys, ["bound", "--family", alias, "--ratio", ratio,
                                "--enumerate", "6", "--quiet", "--allow-known"])
    summary = json_lines(out)[-1]
    assert code == 0 and summary["family"] == label and summary["exceptions"]


def test_bound_extremal_cap_option_is_gone(capsys):
    code, _, err = run(capsys, ["bound", "--ratio", "1/5", "--enumerate", "3",
                                "--extremal-cap", "5"])
    assert code == 2 and "--extremal-cap" in err


# --- n5 and trace -------------------------------------------------------------------

def test_n5_on_plain_graph(capsys, monkeypatch):
    code, out, _ = run(capsys, ["n5"], stdin="DBw\n", monkeypatch=monkeypatch)
    rec = json_lines(out)[0]
    assert code == 0
    assert rec["ok"] is True and rec["size"] <= rec["budget"]


def test_n5_disconnected_graph_is_violation(capsys, monkeypatch):
    code, out, _ = run(capsys, ["n5"], stdin="C?\n", monkeypatch=monkeypatch)
    assert code == 1 and json_lines(out)[0]["error"] == "disconnected-graph"


def test_n5_exceptional_graph_is_violation(capsys, monkeypatch):
    code, out, _ = run(capsys, ["n5"], stdin="C~\n", monkeypatch=monkeypatch)
    rec = json_lines(out)[0]
    assert code == 1 and rec["error"] == "exceptional-graph"


def test_trace_emits_steps(capsys, monkeypatch):
    h15 = encode_g6(__import__("isolation").extremal_witness_15())
    code, out, _ = run(capsys, ["trace"], stdin=h15 + "\n",
                       monkeypatch=monkeypatch)
    rec = json_lines(out)[0]
    assert code == 0
    assert rec["trace"] and all("case" in s for s in rec["trace"])


def test_trace_table_format(capsys, monkeypatch):
    code, out, _ = run(capsys, ["trace", "--format", "table"],
                       stdin="DBw\n", monkeypatch=monkeypatch)
    assert code == 0 and "diamond-free" in out


# --- usage ------------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys, [])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, ["solve", "--wat"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["bound", "--help"]])
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0 and out.startswith("usage: isolation") and err == ""


@pytest.mark.parametrize("argv, stdin, message", [
    (["bound", "--ratio", "x", "--enumerate", "3"], None, "--ratio expects p/q"),
    (["certify", "--set", "a"], "C~\n", "--set expects comma-separated"),
    (["bound", "--ratio", "1/5", "--enumerate", "0"], None, "--enumerate must be"),
    (["solve", "--family", "foo:3"], "C~\n", "--family: unknown pattern family"),
    (["solve", "--family", "custom:?"], "C~\n", "--family: custom family needs"),
    (["construct", "--name", "complete:0"], None, "--name: bad parameters"),
    (["solve"], "~~??????\n", "-:1: graph order beyond supported range"),
    (["solve"], "~?O@\n", "-:1: graph order 1025 exceeds 1024"),
])
def test_bad_values_are_one_line_usage_errors(capsys, monkeypatch, argv, stdin,
                                               message):
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


def test_missing_input_file(capsys):
    code, _, err = run(capsys, ["solve", "--input", "/nonexistent/file.g6"])
    assert code == 2 and "file" in err.lower()


def test_closed_pipe_exits_cleanly():
    # far more output than a pipe buffers, so the writer is still writing
    # when the reader goes away
    src = str(Path(isolation.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from isolation.cli import main; sys.exit(main())",
             "enumerate", "--n", "8", "--format", "json-lines"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
    assert json.loads(first)["n"] == 8


def test_table_format_output(capsys, monkeypatch):
    code, out, _ = run(capsys, ["solve", "--format", "table"],
                       stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 0 and "iota=1" in out


# The paper's five published bounds, as the sweep benchmark runs them.
PUBLISHED_BOUNDS = (
    ("diamond", "1/5", ()),
    ("k2", "1/3", ("--min-n", "3")),
    ("p3", "2/7", ()),
    ("anycycle", "1/4", ()),
    ("k1", "1/2", ()),
)

# sha256 of the exit codes and the records of the five sweeps below, with
# each record's "elapsed" removed and its keys sorted
BOUND_SWEEP_DIGEST = "ad26a60f27876403ff27c5ee33effc746ad1b08472fd0e8ecc05b440f5f449ee"


def test_bound_output_on_a_seeded_stream_is_pinned(capsys, monkeypatch):
    rng = random.Random(2026)
    text = "".join(encode_g6(isolation.random_connected_graph(rng, rng.randint(7, 11)))
                   + "\n" for _ in range(300))
    digest = hashlib.sha256()
    for family, ratio, extra in PUBLISHED_BOUNDS:
        code, out, _ = run(capsys, ["bound", "--family", family, "--ratio", ratio,
                                    *extra, "--allow-known", "--workers", "1"],
                           stdin=text, monkeypatch=monkeypatch)
        records = json_lines(out)
        assert len(records) == 301 and records[-1]["checked"] == 300
        digest.update(f"{family} {code}\n".encode())
        for record in records:
            record.pop("elapsed", None)
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == BOUND_SWEEP_DIGEST


# --- README --------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Each line of README's ``sh`` blocks that runs ``isolation``, split at
    its ``# -> X`` annotation (None when it has none)."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            command, _, note = line.partition("# -> ")
            if re.match(r"(echo .*\| *)?isolation ", command):
                yield pytest.param(command.strip(), note.strip() or None,
                                   id=re.sub(r"\W+", "-", command).strip("-"))


def test_readme_tour_passes_doctest():
    # the >>> examples of the library tour, as `python -m doctest README.md`
    # runs them
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.parametrize("command,note", readme_commands())
def test_readme_commands(capsys, monkeypatch, command, note):
    # a pipeline of echo, isolation and wc -l stages, run in process
    text = ""
    for stage in command.split("|"):
        words = shlex.split(stage)
        if words[0] == "echo":
            text = " ".join(words[1:]) + "\n"
        elif words == ["wc", "-l"]:
            text = f"{len(text.splitlines())}\n"
        else:
            assert words[0] == "isolation", stage
            code, text, err = run(capsys, words[1:], stdin=text,
                                  monkeypatch=monkeypatch)
            assert code == 0, err
    # an annotation is the output itself, or the name of the graph it encodes
    if note is not None:
        try:
            note = encode_g6(make_named(note))
        except ValueError:
            pass
        assert text.strip() == note
