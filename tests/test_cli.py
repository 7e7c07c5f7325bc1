import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

import cotor
from conftest import SparseMatrixF3, gf3mat
from cotor import cache as cache_mod
from cotor.cache import CONSTRUCTION_SOURCES, MatrixCache, fingerprint
from cotor import cli
from cotor.cli import MAX_SUPPORTED_DEGREE, main
from cotor.differential import Differential
from cotor.engine import Engine


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_degree_zero_json(capsys):
    code, out, err = run_cli(capsys, "homology", "--max-degree", "0",
                             "--format", "json")
    assert code == 0
    assert out.strip() == '[{"degree":0,"dim":1,"expected":1,"match":true}]'
    header = json.loads(err.strip().split("\n")[0])
    assert header["schema"] == "cotor-report/1"
    assert header["config"]["command"] == "homology"


def test_poincare_first_thirteen(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--max-degree", "12",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == [1, 0, 0, 0, 1, 0, 0, 0, 2, 1, 1, 0, 2]


def test_flags_accepted_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--max-degree", "12", "--format", "json",
                           "poincare")
    assert code == 0
    assert json.loads(out) == [1, 0, 0, 0, 1, 0, 0, 0, 2, 1, 1, 0, 2]


def test_verify_group_ii_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "ii",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    records = payload["records"]
    assert len(records) == 10
    assert all(r["verdict"] == "EXACT" for r in records)


def test_audit_subcommand(capsys):
    code, out, _ = run_cli(capsys, "audit", "--format", "json",
                           "--max-degree", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["selected"] == "parity"
    assert payload["x26_coefficients"] == [1, 1]


def test_audit_at_degree_100_reports_as_at_the_default(capsys):
    # square-zero is checked in one pass up the degrees, so the audit runs
    # to the CLI's cap; at 100 its report is that of the default degree 40
    code, out, _ = run_cli(capsys, "audit", "--format", "json")
    assert code == 0
    assert run_cli(capsys, "audit", "--max-degree", "100",
                   "--format", "json")[:2] == (0, out)


def test_basis_and_diff(capsys):
    code, out, _ = run_cli(capsys, "basis", "--max-degree", "18",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[18] == {"degree": 18, "dim": 4}
    code, out, _ = run_cli(capsys, "diff", "--max-degree", "13",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[12]["rank"] == 1


def test_discover_subcommand(capsys):
    code, out, _ = run_cli(capsys, "discover",
                           "--support", "a4*y26,a8*y22,a10*y20",
                           "--degree", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [[1, 2, 2]]


@pytest.mark.parametrize("support,degree", [
    ("a4*y22,a10*y20", "26"),       # a support monomial of another degree
    ("a4*q22", "26"),               # an unknown name
    ("a4*y22^", "26"),              # unparsable
    ("a4 + y22", "26"),             # not one monomial
    ("a9^10", "90"),                # word-type, beyond the degree cap
    ("a4^300", "1200"),             # word-free, beyond the key range
    (",,", "30"),                   # no monomial at all
])
def test_discover_bad_input_exits_two(capsys, monkeypatch, support, degree):
    # refused before the support is evaluated, with no traceback
    import cotor.relations as relations

    def no_discovery(*args):
        raise AssertionError("discover_relation ran on bad input")

    monkeypatch.setattr(relations, "discover_relation", no_discovery)
    code, out, err = run_cli(capsys, "discover", "--support", support,
                             "--degree", degree)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: ")


def test_spectral_subcommand(capsys):
    # degree 36 is the first place the second page differential acts
    code, out, _ = run_cli(capsys, "spectral", "--scheme", "may_s5",
                           "--max-degree", "36", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["active_pages"] == [0, 1, 2]
    assert payload["collapsed_at"] == 3


def test_spectral_builds_each_profile_once(capsys, monkeypatch):
    from cotor import engine as engine_module, gf3, spectral
    from cotor.gf3 import BlockDiagonalF3, Echelon

    # each degree's counters are built once, from one pass over d_n,
    # block by block; a block with one row or one column needs no
    # elimination, and no block is ranked a second time (convergence
    # meets the series)
    passes, rank_blocks, eliminations = [], [], []
    pivots = BlockDiagonalF3.pivot_weights
    block_rank = engine_module._block_rank
    monkeypatch.setattr(BlockDiagonalF3, "pivot_weights",
                        lambda *a: passes.append(1) or pivots(*a))
    monkeypatch.setattr(engine_module, "_block_rank", lambda b: (
        rank_blocks.append(1) or block_rank(b)))
    for module in (engine_module, gf3):
        monkeypatch.setattr(module, "Echelon", lambda *a, **k: (
            eliminations.append(1) or Echelon(*a, **k)))
    code, out, _ = run_cli(capsys, "spectral", "--scheme", "may_s5",
                           "--max-degree", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True
    # one pass per degree 0..20, and no rank of d
    assert len(passes) == 21
    assert rank_blocks == []
    engine = Engine(convention="parity")
    blocks = [b for n in range(21) for b in engine.d_matrix(n).blocks.values()]
    assert len(eliminations) == sum(len(rows) > 1 and len(cols) > 1
                                    for rows, cols, _, _ in blocks)
    # d_0..d_20 has no such block; through d_40 there are some
    del eliminations[:]
    assert spectral.SpectralSequence(
        engine, "may_s5").check_filtration_compatibility(40)
    blocks = [b for n in range(41) for b in engine.d_matrix(n).blocks.values()]
    assert len(eliminations) == sum(len(rows) > 1 and len(cols) > 1
                                    for rows, cols, _, _ in blocks) > 0
    assert rank_blocks == []


def test_homology_reports_a_planted_rank(capsys, monkeypatch):
    # spectral's convergence check no longer reads Engine.rank; homology's
    # series column still sees one wrong rank, in the two degrees it enters
    make = cli._engine

    def planted(args):
        engine = make(args)
        engine.rank(30)
        engine._ranks[30] += 1
        return engine
    monkeypatch.setattr(cli, "_engine", planted)
    code, out, _ = run_cli(capsys, "homology", "--max-degree", "35")
    assert code == 1
    assert [line.split()[0] for line in out.splitlines()
            if line.endswith("MISMATCH")] == ["30", "31"]


def test_spectral_page_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--scheme", "trivial",
                           "--page", "1", "--max-degree", "10",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,n,dim"
    assert "0,0,1" in lines[1]


def test_spectral_page_past_every_pair_is_the_limit(capsys):
    # the cost of a page does not grow with its index; for weight_s3,
    # page 7 onward is the limit
    limit = run_cli(capsys, "spectral", "--page", "9", "--max-degree", "30")
    assert limit[0] == 0 and limit[1]
    assert run_cli(capsys, "spectral", "--page", "1000000000000",
                   "--max-degree", "30")[:2] == limit[:2]


def test_csv_refused_before_any_work(capsys, monkeypatch):
    import cotor.relations as relations

    def no_verification(*args):
        raise AssertionError("verify ran although CSV was refused")

    monkeypatch.setattr(relations, "verify_all", no_verification)
    code, out, err = run_cli(capsys, "verify", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: --format csv is not available for verify\n"


def test_out_of_memory_exits_two(capsys, monkeypatch):
    # planted in the command: nothing is allocated for real
    import cotor.relations as relations

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(relations, "ideal_and_split_check", exhausted)
    code, out, err = run_cli(capsys, "ideal-check", "--max-degree", "10")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: out of memory"


def test_header_fingerprint_only_with_a_cache(capsys, monkeypatch, tmp_path):
    # hashing the construction code is paid only when a cache is used
    monkeypatch.delenv("COTOR_CACHE_DIR", raising=False)
    calls = []
    original = cache_mod.construction_digest

    def counted(source_dir):
        calls.append(source_dir)
        return original(source_dir)

    monkeypatch.setattr(cache_mod, "construction_digest", counted)
    code, _, err = run_cli(capsys, "verify", "--group", "ii")
    assert code == 0 and calls == []
    assert json.loads(err.splitlines()[0])["fingerprint"] is None
    code, _, err = run_cli(capsys, "homology", "--max-degree", "4",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and calls
    header = json.loads(err.splitlines()[0])
    assert header["fingerprint"] == fingerprint("parity")
    assert os.listdir(tmp_path) == [header["fingerprint"]]


def test_csv_refused_without_a_csv_form(capsys):
    # the page grid has a CSV form (pinned in test_golden.py); the scheme
    # checks and verify do not, and exit 2 instead of printing text
    for argv, command in ((("verify", "--group", "ii"), "verify"),
                          (("spectral", "--max-degree", "20"), "spectral")):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err.endswith(
            f"error: --format csv is not available for {command}\n")


def test_table40_subcommand(capsys):
    code, out, _ = run_cli(capsys, "table40", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 26
    assert all(r["expanded_ok"] for r in rows)


def test_exit_code_two_on_config_errors(capsys):
    assert run_cli(capsys, "homology", "--max-degree", "-1")[0] == 2
    assert run_cli(capsys, "homology", "--max-degree", "400")[0] == 2
    # a negative page is refused before any work, with one error line
    assert run_cli(capsys, "spectral", "--page", "-1") == (
        2, "", "error: --page must be >= 0\n")
    # a subcommand-specific flag is refused elsewhere, before or after
    # the subcommand, with one error line
    for argv, flag, reader in (
            (("homology", "--page", "5", "--scheme", "may_s5", "--group",
              "ii", "--max-degree", "2"), "scheme", "spectral"),
            (("verify", "--page", "3"), "page", "spectral"),
            (("table40", "--scheme", "weight_s3"), "scheme", "spectral"),
            (("--group", "all", "homology", "--max-degree", "2"), "group",
             "verify"),
            (("spectral", "--group", "i", "--max-degree", "2"), "group",
             "verify")):
        assert run_cli(capsys, *argv) == (
            2, "", f"error: --{flag} is read only by {reader}\n"), argv
    # the measured cap (see cli.MAX_SUPPORTED_DEGREE); every subcommand
    # refuses one past it (test_every_subcommand_refuses_a_degree_past_the_cap)
    assert MAX_SUPPORTED_DEGREE == 160
    # the sign rule is always the audited one; --convention is not a flag
    for value in ("bogus", "force:plus"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--convention", value])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("audit",), ("basis",), ("diff",), ("homology",), ("poincare",),
    ("verify",), ("discover", "--support", "a9*a4", "--degree", "13"),
    ("table40",), ("spectral",), ("ideal-check",)], ids=lambda a: a[0])
def test_every_subcommand_refuses_a_degree_past_the_cap(capsys, argv):
    # the range check runs before dispatch, so nothing is computed
    assert set(cli._COMMANDS) == {
        "audit", "basis", "diff", "homology", "poincare", "verify",
        "discover", "table40", "spectral", "ideal-check"}
    code, out, err = run_cli(capsys, *argv, "--max-degree",
                             str(MAX_SUPPORTED_DEGREE + 1))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_code_one_on_injected_failure(capsys, monkeypatch):
    # synthetic failure injection: the exit-code contract must follow the
    # verdicts, not the happy path
    import cotor.relations as relations

    class FakeReport:
        all_ok = False
        errata = []
        assignment = None
        group_i_reconcilable = False

        def records_json(self):
            return [{"id": "x", "verdict": "FAIL"}]

        verdicts = []

    monkeypatch.setattr(relations, "verify_all",
                        lambda engine, groups: FakeReport())
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 1


def test_report_determinism(capsys):
    _, out1, _ = run_cli(capsys, "homology", "--max-degree", "16",
                         "--format", "json")
    _, out2, _ = run_cli(capsys, "homology", "--max-degree", "16",
                         "--format", "json")
    assert out1 == out2


def test_cache_roundtrip(tmp_path, engine):
    cache = MatrixCache(tmp_path, "parity")
    m = engine.d_matrix(17)
    cache.store(17, m)
    assert cache.load(17, *blocks_of(engine, 17)) == m


def blocks_of(engine, n):
    """The row and column blocks of d_n, as `MatrixCache.load` takes them."""
    return engine.basis(n + 1).blocks, engine.basis(n).blocks


def test_cache_fingerprint_mismatch_is_a_miss(tmp_path, engine):
    MatrixCache(tmp_path, "parity").store(17, engine.d_matrix(17))
    other = MatrixCache(tmp_path, "plus")
    assert fingerprint("parity") != fingerprint("plus")
    assert other.load(17, *blocks_of(engine, 17)) is None


def test_cache_fingerprint_sees_construction_source(tmp_path, monkeypatch):
    # an unchanged copy of the construction modules keeps the fingerprint,
    # an edited one moves it, so old matrices are never read back
    for name in CONSTRUCTION_SOURCES:
        shutil.copy(os.path.join(cache_mod.SOURCE_DIR, name), tmp_path)
    before = fingerprint("parity")
    monkeypatch.setattr(cache_mod, "SOURCE_DIR", str(tmp_path))
    assert fingerprint("parity") == before
    source = tmp_path / "differential.py"
    source.write_text(source.read_text() + "\nDEFAULT_CONVENTION = 'plus'\n")
    cache_mod.construction_digest.cache_clear()
    assert fingerprint("parity") != before


def test_cache_fingerprint_ignores_comments(tmp_path, monkeypatch):
    # comments and blank lines are not code: editing them keeps the cache
    for name in CONSTRUCTION_SOURCES:
        shutil.copy(os.path.join(cache_mod.SOURCE_DIR, name), tmp_path)
    before = fingerprint("parity")
    monkeypatch.setattr(cache_mod, "SOURCE_DIR", str(tmp_path))
    source = tmp_path / "dga.py"
    text = source.read_text()
    assert "    w = k >> WORD_SHIFT\n" in text
    source.write_text(
        "# a new first line\n\n"
        + text.replace("    w = k >> WORD_SHIFT\n",
                       "    w = k >> WORD_SHIFT   # the word bits\n\n", 1))
    assert fingerprint("parity") == before


def test_code_text_keeps_every_module_s_syntax_tree():
    # dropping comments and blank lines leaves the code as Python parses it
    names = sorted(n for n in os.listdir(cache_mod.SOURCE_DIR)
                   if n.endswith(".py"))
    assert set(CONSTRUCTION_SOURCES) <= set(names)
    for name in names:
        with open(os.path.join(cache_mod.SOURCE_DIR, name)) as fh:
            text = fh.read()
        code = cache_mod.code_text(text)
        assert ast.dump(ast.parse(code)) == ast.dump(ast.parse(text)), name
        assert len(code) < len(text), name


@pytest.mark.parametrize("edit", [
    # a "#" in a string literal is not a comment
    lambda text: (text + '\nNOTE = "a # b"\n',
                  text + '\nNOTE = "a # c"\n'),
    lambda text: (text + "\nNOTE = 'a # b'  # c\n",
                  text + "\nNOTE = 'a # c'  # c\n"),
    # a blank line in a triple-quoted string is part of its value
    lambda text: (text, text.replace(
        '"""The graded algebra under study, as a concrete rewriting system.\n',
        '"""The graded algebra under study, as a concrete rewriting system.\n'
        '\n', 1)),
], ids=["hash-in-string", "hash-in-string-before-comment",
        "blank-line-in-docstring"])
def test_cache_fingerprint_sees_string_literals(tmp_path, monkeypatch, edit):
    for name in CONSTRUCTION_SOURCES:
        shutil.copy(os.path.join(cache_mod.SOURCE_DIR, name), tmp_path)
    monkeypatch.setattr(cache_mod, "SOURCE_DIR", str(tmp_path))
    source = tmp_path / "dga.py"
    before, after = edit(source.read_text())
    assert before != after
    prints = []
    for text in (before, after):
        source.write_text(text)
        cache_mod.construction_digest.cache_clear()
        prints.append(fingerprint("parity"))
    cache_mod.construction_digest.cache_clear()
    assert prints[0] != prints[1]


def test_cache_fingerprint_same_in_two_processes():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    code = "from cotor.cache import fingerprint; print(fingerprint('parity'))"
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, check=True).stdout.strip()
            for _ in range(2)]
    assert outs == [fingerprint("parity")] * 2


def test_jobs_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["homology", "--max-degree", "4", "--jobs", "2"])
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_cache_corruption_rebuilds(tmp_path, engine, caplog):
    cache = MatrixCache(tmp_path, "parity")
    for garbage in (b"GF3MAT v1 not a matrix\n", b"GF3MAT v1 \xff\n"):
        path = cache.store(17, engine.d_matrix(17))
        with open(path, "wb") as fh:
            fh.write(garbage)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert cache.load(17, *blocks_of(engine, 17)) is None
        assert any("corrupted" in r.message for r in caplog.records)
        assert not os.path.exists(path)


def test_unreadable_cache_file_is_not_corruption(tmp_path, engine, capsys,
                                                 caplog):
    # a cache entry that cannot be read (here a directory) is not refused
    # text: it is neither reported as corrupted nor removed, and the CLI
    # stops with an error line and exit 2
    cache = MatrixCache(tmp_path, "parity")
    os.makedirs(cache.path(5))
    with caplog.at_level("WARNING"):
        with pytest.raises(OSError):
            cache.load(5, *blocks_of(engine, 5))
        code, out, err = run_cli(capsys, "homology", "--max-degree", "10",
                                 "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    assert not any("corrupted" in r.message for r in caplog.records)
    assert os.path.isdir(cache.path(5))


def test_cache_dir_that_is_not_a_directory_exits_2(tmp_path):
    # a regular file, or a path below one, is refused before any work
    afile = tmp_path / "afile"
    afile.write_text("not a cache\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cotor.__file__)))
    for target in (afile, afile / "below"):
        proc = subprocess.run(
            [sys.executable, "-m", "cotor.cli", "homology", "--max-degree",
             "10", "--cache-dir", str(target)],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"error: --cache-dir {target}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "corrupted" not in proc.stderr
    assert afile.read_text() == "not a cache\n"


def test_store_writes_through_its_own_temporary_file(tmp_path, engine,
                                                      monkeypatch):
    # two writers of one file use two temporary names; a write that fails
    # leaves no file behind (perfbench refuses unexpected files)
    cache = MatrixCache(tmp_path, "parity")
    replaced, real = [], os.replace
    monkeypatch.setattr(cache_mod.os, "replace",
                        lambda a, b: (replaced.append(a), real(a, b))[1])
    for _ in range(2):
        cache.store(4, engine.d_matrix(4))
    assert len(set(replaced)) == 2
    assert all(os.path.dirname(t) == cache.dir for t in replaced)

    class Unwritable:
        def serialize(self):
            return "GF3MAT v1 \u00e9"      # not ASCII: the write fails

    with pytest.raises(UnicodeEncodeError):
        cache.store(5, Unwritable())
    assert os.listdir(cache.dir) == ["d_4.gf3mat"]
    assert cache.load(4, *blocks_of(engine, 4)) == engine.d_matrix(4)
    # the file has the mode a plain write gives it, not a private one
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(cache.path(4)).st_mode & 0o777 == 0o666 & ~umask


def test_warm_engine_builds_no_matrix(tmp_path, engine, monkeypatch):
    # what perfbench's warm trace checks: a warm run reads every d_n from
    # the cache, builds none, and gets the cold run's blocks
    cold = Engine(convention="parity", cache_dir=tmp_path)
    cold.build_range(40)
    built, real = [], Differential.matrix
    monkeypatch.setattr(Differential, "matrix", lambda self, n, *a: (
        built.append(n) or real(self, n, *a)))
    warm = Engine(convention="parity", cache_dir=tmp_path)
    warm.build_range(40)
    assert built == []
    for n in range(41):
        assert warm.d_matrix(n) == cold.d_matrix(n) == engine.d_matrix(n)
    assert sorted(os.listdir(warm.cache.dir)) == sorted(
        f"d_{n}.gf3mat" for n in range(41))


def test_cached_entry_across_blocks_is_rebuilt(tmp_path, engine, capsys,
                                              caplog):
    # a cached d_12 with an entry joining two Z^4 blocks is corrupt: it is
    # reported and rewritten, and the report is that of a run without a
    # cache
    args = ("homology", "--max-degree", "20", "--format", "json")
    _, plain, _ = run_cli(capsys, *args)
    cached = args + ("--cache-dir", str(tmp_path))
    assert run_cli(capsys, *cached)[:2] == (0, plain)
    path = MatrixCache(tmp_path, "parity").path(12)
    with open(path) as fh:
        good = fh.read()
    m = engine.d_matrix(12)
    assert m.serialize() == good
    assert (0, 1) not in m.entries
    with open(path, "w") as fh:
        fh.write(gf3mat(SparseMatrixF3(m.n_rows, m.n_cols,
                                       {**m.entries, (0, 1): 1})))
    with caplog.at_level("WARNING"):
        assert run_cli(capsys, *cached)[:2] == (0, plain)
    assert any("corrupted" in r.message and "another block" in r.message
               for r in caplog.records)
    with open(path) as fh:
        assert fh.read() == good


def test_cache_dir_created_on_demand(tmp_path, engine):
    target = tmp_path / "does" / "not" / "exist"
    eng = Engine(convention="parity", cache_dir=target)
    m = eng.d_matrix(12)
    assert (target / fingerprint("parity") / "d_12.gf3mat").exists()
    # reload through a fresh engine takes the cache path
    eng2 = Engine(convention="parity", cache_dir=target)
    assert eng2.d_matrix(12) == m


def test_cached_matrix_bit_exact(tmp_path, engine):
    eng = Engine(convention="parity", cache_dir=tmp_path)
    m = eng.d_matrix(26)
    text1 = m.serialize()
    text2 = eng.cache.load(26, *blocks_of(eng, 26)).serialize()
    assert text1 == text2


def test_verify_with_a_cache_leaves_no_partial_file(tmp_path, engine, capsys):
    # verify builds blocks of d on demand and stores no d_n built in part:
    # every file it writes (if any) is that of a whole cold build, and the
    # report is that of a run without a cache
    _, plain, _ = run_cli(capsys, "verify", "--format", "json")
    assert run_cli(capsys, "verify", "--format", "json", "--cache-dir",
                   str(tmp_path))[:2] == (0, plain)
    for top, _, names in os.walk(tmp_path):
        for name in names:
            assert top == MatrixCache(tmp_path, "parity").dir, name
            n = int(name.removeprefix("d_").removesuffix(".gf3mat"))
            with open(os.path.join(top, name)) as fh:
                assert fh.read() == engine.d_matrix(n).serialize(), name


# every CLI path that used to densify or call numpy, at small degrees
NUMPY_FREE_PATHS = (
    ("homology", "--max-degree", "30", "--check-basis"),
    ("ideal-check", "--max-degree", "40"),
    ("verify",),
    ("discover", "--support", "a4*y26,a8*y22,a10*y20", "--degree", "30"),
    ("discover", "--support", "a9*a4", "--degree", "13"),
    ("spectral", "--scheme", "weight_s3", "--max-degree", "40"),
)


def test_cli_paths_leave_numpy_unimported():
    # a fresh interpreter: the test process itself has numpy loaded
    code = """if True:
        import contextlib, io, json, sys
        import cotor
        loaded = {"import cotor": "numpy" in sys.modules}
        from cotor.cli import main
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            loaded[" ".join(argv)] = (code, "numpy" in sys.modules)
        print(json.dumps(loaded))
    """
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(NUMPY_FREE_PATHS)],
        capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(proc.stdout)
    assert loaded == {"import cotor": False,
                      **{" ".join(argv): [0, False]
                         for argv in NUMPY_FREE_PATHS}}
