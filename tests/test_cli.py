import io
import json

from isolation import canonical_form, decode_g6, diamond_graph, encode_g6, y_graph
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


def test_bad_family_is_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, ["solve", "--family", "widget"],
                       stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 2 and "--family" in err


# --- enumerate -------------------------------------------------------------------

def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4"])
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 6
    assert all(decode_g6(line).n == 4 for line in lines)


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


def test_bound_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("ISOLATION_WORKERS", "2")
    code, out, _ = run(capsys, ["bound", "--family", "diamond",
                                "--ratio", "1/5", "--enumerate", "4", "--quiet",
                                "--allow-known"])
    assert code == 0 and json_lines(out)[-1]["checked"] == 10


def test_bound_workers_env_garbage(capsys, monkeypatch):
    monkeypatch.setenv("ISOLATION_WORKERS", "many")
    code, _, err = run(capsys, ["bound", "--family", "diamond",
                                "--ratio", "1/5", "--enumerate", "3"])
    assert code == 2 and "ISOLATION_WORKERS" in err


# --- n5 and trace -------------------------------------------------------------------

def test_n5_on_plain_graph(capsys, monkeypatch):
    code, out, _ = run(capsys, ["n5"], stdin="DBw\n", monkeypatch=monkeypatch)
    rec = json_lines(out)[0]
    assert code == 0
    assert rec["ok"] is True and rec["size"] <= rec["budget"]


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


# --- property suites ------------------------------------------------------------------

def test_attachment_check_command(capsys):
    code, out, _ = run(capsys, ["lemma5-check", "--samples", "15",
                                "--max-n", "9", "--seed", "1"])
    summary = json_lines(out)[-1]
    assert code == 0 and summary["passed"] is True and summary["samples"] == 15


def test_y_check_command(capsys):
    code, out, _ = run(capsys, ["y-check"])
    rec = json_lines(out)[0]
    assert code == 0 and rec["passed"] is True
    assert rec["iota"] == 2 and rec["violates_fifth_bound"] is True


# --- usage ------------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["solve", "--wat"]) == 2


def test_missing_input_file(capsys):
    code, _, err = run(capsys, ["solve", "--input", "/nonexistent/file.g6"])
    assert code == 2 and "file" in err.lower()


def test_table_format_output(capsys, monkeypatch):
    code, out, _ = run(capsys, ["solve", "--format", "table"],
                       stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 0 and "iota=1" in out
