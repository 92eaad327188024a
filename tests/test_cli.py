import contextlib
import dataclasses
import io
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptgraph as pg
from perfbench import cli_pool
from ptgraph import cli, spectral
from util import GOLDEN_K1

#: seconds any child process may take, so a hang fails its test and does not stall
#: the suite; the slowest child here takes about 1 s
PROCESS_TIMEOUT = 10


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`ptgraph *args` as cli.main in this process, with the exit code, stdout
    and stderr that the process gives; argparse's own exits are caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a child process that imports the ptgraph under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(pg.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=PROCESS_TIMEOUT)


def launch(*args: str) -> subprocess.CompletedProcess:
    """`python -m ptgraph *args` as a child process, for tests whose subject is
    the process itself; every other test uses run_cli."""
    return run_python("-m", "ptgraph", *args)


def data_rows(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestSpectrum:
    def test_golden_first_root(self, tmp_path: Path):
        out = tmp_path / "roots.csv"
        cp = run_cli(
            "spectrum", "--lengths", "1.0,1.5,2.0", "--kmax", "20",
            "--tol", "1e-12", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        rows = data_rows(out.read_text())
        assert rows[0] == "n,k,degenerate"
        first = rows[1].split(",")
        assert first[0] == "1"
        assert abs(float(first[1]) - GOLDEN_K1) < 1e-9
        assert first[1] == f"{GOLDEN_K1:.12g}"
        assert first[2] == "false"
        assert len(rows) == 1 + 12

    def test_single_bond_usage_error(self):
        cp = run_cli("spectrum", "--lengths", "1.0", "--kmax", "5")
        assert cp.returncode == 2
        assert "--lengths" in cp.stderr

    def test_equal_lengths_degenerate_row(self, tmp_path: Path):
        out = tmp_path / "r.csv"
        cp = run_cli("spectrum", "--lengths", "1,1,1", "--kmax", "4", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        rows = data_rows(out.read_text())
        k, flag = rows[1].split(",")[1:]
        assert flag == "true"
        assert abs(float(k) - math.pi) < 1e-6

    def test_inseparable_roots_fail_without_output(self, tmp_path: Path):
        # S = 2 sin k cos(k / 2) has a double root at pi that no sign change shows;
        # _split_pt once hung on it, so this runs as a process under a timeout
        out = tmp_path / "r.csv"
        cp = launch("spectrum", "--lengths", "1.5,0.5", "--kmax", "4", "--out", str(out))
        assert cp.returncode == 1
        assert "EvaluationFailure" in cp.stderr and "k = 3.14159" in cp.stderr
        assert cp.stdout == "" and list(tmp_path.iterdir()) == []

    def test_deterministic_output(self, tmp_path: Path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            cp = run_cli("spectrum", "--lengths", "1.0,1.5,2.0", "--kmax", "12", "--out", str(path))
            assert cp.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_four_bond_graph(self, tmp_path: Path):
        out = tmp_path / "r4.csv"
        cp = run_cli("spectrum", "--lengths", "1.0,1.3,1.7,2.3", "--kmax", "6", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        rows = data_rows(out.read_text())
        assert len(rows) > 1
        ks = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(0 < k <= 6 for k in ks)
        assert ks == sorted(ks)

    def test_kirchhoff_family_has_own_roots(self, tmp_path: Path):
        a, b = tmp_path / "pt.csv", tmp_path / "k.csv"
        run_cli("spectrum", "--lengths", "1,1.5,2", "--kmax", "3", "--out", str(a))
        run_cli("spectrum", "--lengths", "1,1.5,2", "--kmax", "3",
                "--family", "kirchhoff-ref", "--out", str(b))
        first_pt = float(data_rows(a.read_text())[1].split(",")[1])
        first_k = float(data_rows(b.read_text())[1].split(",")[1])
        assert abs(first_pt - first_k) > 0.1

    @pytest.mark.parametrize(
        "flag,args",
        [
            ("--kmax", ["--lengths", "1,1.5,2", "--kmax", "-3"]),
            ("--tol", ["--lengths", "1,1.5,2", "--tol", "0"]),
            ("--resolution", ["--lengths", "1,1.5,2", "--resolution", "100"]),
            ("--precision", ["--lengths", "1,1.5,2", "--precision", "0"]),
            ("--family", ["--lengths", "1,1.5,2", "--family", "mystery"]),
            ("--lengths", ["--lengths", "1.0,abc"]),
        ],
    )
    def test_validation_names_the_flag(self, flag, args):
        cp = run_cli("spectrum", *args)
        assert cp.returncode == 2
        assert flag in cp.stderr


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("tol", ["5", "1"])
def test_tol_not_below_kmax_is_a_usage_error(command, tol):
    cp = run_cli(command, "--lengths", "1,2", "--kmax", "1", "--tol", tol)
    assert cp.returncode == 2
    assert "--tol" in cp.stderr and cp.stdout == ""


class TestRunConfig:
    @pytest.mark.parametrize("family", ["kirchhoff-ref", "custom:perfbench/data/custom_pt3.txt"])
    def test_pair_is_the_one_the_family_names(self, monkeypatch, family):
        monkeypatch.chdir(REPO)
        args = cli.build_parser().parse_args(["verify", "--lengths", "1,1.5,2", "--family", family])
        cfg = cli.RunConfig.from_args(args, cli._ALLOWED_FAMILIES["verify"])
        assert [f.name for f in dataclasses.fields(cfg)] == ["graph", "pair", "args"]
        if family == pg.KIRCHHOFF_REF:
            want = pg.bc_matrices(pg.KIRCHHOFF_REF, cfg.graph)
        else:
            want = pg.load_bc_matrices(REPO / "perfbench" / "data" / "custom_pt3.txt", 3)
        assert cfg.pair.family == want.family
        assert cfg.pair.a.tobytes() == want.a.tobytes() and cfg.pair.b.tobytes() == want.b.tobytes()

    @pytest.mark.parametrize("command, families", [
        ("spectrum", "pt-dirichlet | pt-neumann | kirchhoff-ref"),
        ("modes", "pt-dirichlet | pt-neumann"),
        ("evolve", "pt-dirichlet | pt-neumann | kirchhoff-ref"),
        ("verify", "pt-dirichlet | pt-neumann | kirchhoff-ref | custom:<path>"),
    ])
    def test_family_help_lists_what_the_command_accepts(self, monkeypatch, command, families):
        monkeypatch.setenv("COLUMNS", "200")  # one help line per flag
        cp = run_cli(command, "--help")
        assert cp.returncode == 0
        line = next(ln for ln in cp.stdout.splitlines() if ln.strip().startswith("--family"))
        assert line.split() == ["--family", "FAMILY", *families.split()]


class TestModes:
    def test_profiles_and_norm_checks(self, tmp_path: Path):
        out = tmp_path / "modes.csv"
        cp = run_cli(
            "modes", "--lengths", "1.0,1.5,2.0", "--family", "pt-dirichlet",
            "--kmax", "4", "--resolution", "401", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        text = out.read_text()
        norm_lines = [ln for ln in text.splitlines() if ln.startswith("# norm_check,")]
        assert len(norm_lines) == 2  # two regular modes below k = 4
        for ln in norm_lines:
            assert abs(float(ln.split(",")[2]) - 1.0) < 1e-8
        rows = data_rows(text)
        assert rows[0] == "n,bond,x,re_psi,im_psi"
        lengths = {1: 1.0, 2: 1.5, 3: 2.0}
        end_rows = 0
        for ln in rows[1:]:
            n, bond, x, re_psi, im_psi = ln.split(",")
            if float(x) == lengths[int(bond)]:
                end_rows += 1
                assert float(re_psi) == 0.0 and float(im_psi) == 0.0
        assert end_rows == 6  # one per bond per mode

    def test_norm_checks_come_from_the_basis(self, tmp_path: Path, monkeypatch):
        # the printed norm checks are the ones build_basis ran: no quadrature after it
        calls = []
        build_basis, l2_inner = cli.build_basis, cli.l2_inner

        def traced_build_basis(*args, **kwargs):
            basis = build_basis(*args, **kwargs)
            calls.append("build_basis")
            return basis

        def traced_l2_inner(*args, **kwargs):
            calls.append("l2_inner")
            return l2_inner(*args, **kwargs)

        monkeypatch.setattr(cli, "build_basis", traced_build_basis)
        monkeypatch.setattr(cli, "l2_inner", traced_l2_inner)
        monkeypatch.setattr(spectral, "l2_inner", traced_l2_inner)
        out = tmp_path / "modes.csv"
        cp = run_cli("modes", "--lengths", "1,1.3,1.7", "--kmax", "20", "--family", "pt-neumann",
                     "--resolution", "801", "--precision", "17", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert calls[-1] == "build_basis" and calls.count("l2_inner") > 0
        monkeypatch.undo()
        basis = pg.build_basis(pg.make_star_graph([1.0, 1.3, 1.7]), pg.PT_NEUMANN, 20.0,
                               resolution=801)
        want = []
        for n, mode in enumerate(basis.modes, start=1):
            want.append(f"# norm_check,{n},{cli._fmt(pg.l2_inner(mode, mode, 801).real, 17)}")
        got = [ln for ln in out.read_text().splitlines() if ln.startswith("# norm_check,")]
        assert len(got) == len(basis.modes) > 5
        assert got == want

    def test_kirchhoff_family_not_allowed(self):
        cp = run_cli("modes", "--lengths", "1,1.5,2", "--family", "kirchhoff-ref")
        assert cp.returncode == 2
        assert "--family" in cp.stderr

    def test_empty_basis_gives_header_only(self, tmp_path: Path):
        out = tmp_path / "empty.csv"
        cp = run_cli(
            "modes", "--lengths", "1.0,1.5,2.0", "--family", "pt-dirichlet",
            "--kmax", "1.0", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        rows = data_rows(out.read_text())
        assert rows == ["n,bond,x,re_psi,im_psi"]

    def test_unknown_family(self):
        cp = run_cli("modes", "--lengths", "1,1.5,2", "--family", "nonsense")
        assert cp.returncode == 2

    def test_failed_computation_writes_nothing(self, tmp_path: Path):
        # the double root at pi on (1.5, 0.5) cannot be separated
        args = ("modes", "--lengths", "1.5,0.5", "--kmax", "4")
        cp = run_cli(*args)
        assert cp.returncode == 1 and "EvaluationFailure" in cp.stderr
        assert cp.stdout == ""
        cp = run_cli(*args, "--out", str(tmp_path / "m.csv"))
        assert cp.returncode == 1
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("modes", "--kmax", "26", "--resolution", "401"),
    ("evolve", "--kmax", "150", "--coeffs", "equal:5", "--tsteps", "3"),
    ("verify", "--kmax", "150"),
])
def test_norm_check_grid_is_never_coarser_than_k_needs(args):
    # the top modes need more points per bond than --resolution (401) or its default (2001)
    cp = run_cli(args[0], "--lengths", "1,1.3,1.7", *args[1:])
    assert cp.returncode == 0, cp.stderr


class TestEvolve:
    def test_pt_current_breaks_kirchhoff_rule(self, tmp_path: Path):
        out = tmp_path / "j.csv"
        cp = run_cli(
            "evolve", "--lengths", "1.0,1.5,2.0", "--family", "pt-dirichlet",
            "--coeffs", "equal:5", "--tmax", "1.0", "--tsteps", "1000", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        rows = data_rows(out.read_text())
        assert rows[0] == "t,J_total,J_1,J_2,J_3"
        assert len(rows) == 1 + 1000
        totals = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.max(np.abs(totals)) > 1e-3
        # definitional: total equals the per-bond sum at print precision
        for r in rows[1:50]:
            parts = [float(v) for v in r.split(",")]
            assert parts[1] == pytest.approx(sum(parts[2:]), abs=1e-9)

    def test_kirchhoff_reference_conserves(self, tmp_path: Path):
        out = tmp_path / "jk.csv"
        cp = run_cli(
            "evolve", "--lengths", "1.0,1.5,2.0", "--family", "kirchhoff-ref",
            "--coeffs", "equal:5", "--tmax", "1.0", "--tsteps", "200", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        totals = [abs(float(r.split(",")[1])) for r in data_rows(out.read_text())[1:]]
        assert max(totals) < 1e-10

    def test_resolution_reaches_the_basis(self, tmp_path: Path):
        # k = 121.72 is the first mode of this graph whose norm check fails
        # at the default 2001 points per bond
        out = tmp_path / "jr.csv"
        cp = run_cli(
            "evolve", "--lengths", "1,1.3,1.7", "--kmax", "122", "--resolution", "4001",
            "--coeffs", "equal:5", "--tsteps", "3", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        assert len(data_rows(out.read_text())) == 1 + 3

    def test_zero_mode_count_rejected(self):
        cp = run_cli(
            "evolve", "--lengths", "1,1.5,2", "--family", "pt-dirichlet", "--coeffs", "equal:0"
        )
        assert cp.returncode == 2
        assert "--coeffs" in cp.stderr

    def test_too_many_modes_rejected(self):
        cp = run_cli(
            "evolve", "--lengths", "1,1.5,2", "--family", "pt-dirichlet",
            "--kmax", "4", "--coeffs", "equal:50",
        )
        assert cp.returncode == 2
        assert "--coeffs" in cp.stderr
        assert cp.stdout == ""

    def test_explicit_coefficient_list(self, tmp_path: Path):
        out = tmp_path / "jl.csv"
        cp = run_cli(
            "evolve", "--lengths", "1.0,1.5,2.0", "--family", "pt-neumann",
            "--coeffs", "list:0.6,0.8j", "--tmax", "0.5", "--tsteps", "100", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        assert len(data_rows(out.read_text())) == 101

    def test_bad_coefficient_spec(self):
        cp = run_cli("evolve", "--lengths", "1,1.5,2", "--coeffs", "ramp:3")
        assert cp.returncode == 2
        assert "--coeffs" in cp.stderr

    @pytest.mark.parametrize("raw", ["list:nan", "list:inf,1", "list:0.5,nanj"])
    def test_non_finite_coefficient_is_a_usage_error(self, tmp_path: Path, raw):
        out = tmp_path / "j.csv"
        cp = run_cli("evolve", "--lengths", "1,1.3,1.7", "--coeffs", raw, "--tsteps", "3",
                     "--out", str(out))
        assert cp.returncode == 2
        assert "--coeffs" in cp.stderr and cp.stdout == ""
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_memory_does_not_grow_with_time_steps(self, tmp_path: Path):
        common = ("evolve", "--lengths", "1.0,1.5,2.0", "--coeffs", "equal:5", "--kmax", "80")
        short = peak_rss_kb(*common, "--tsteps", "250", "--out", str(tmp_path / "a.csv"))
        long = peak_rss_kb(*common, "--tsteps", "20000", "--out", str(tmp_path / "b.csv"))
        assert long - short < 3 * 1024


class TestVerify:
    def test_pt_dirichlet_passes(self):
        cp = run_cli("verify", "--lengths", "1.0,1.5,2.0", "--family", "pt-dirichlet")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert "result: PASS" in cp.stdout
        assert "[FAIL]" not in cp.stdout
        # the rank discrepancy with the usual compact-form statement is surfaced
        assert "rank_a  : 5" in cp.stdout
        assert "rank_b  : 1" in cp.stdout
        assert "[NOTE]" in cp.stdout
        # degenerate roots of the commensurate graph are warned about
        assert "[WARN]" in cp.stdout and "incomplete" in cp.stdout

    def test_pt_neumann_passes(self):
        cp = run_cli("verify", "--lengths", "1.0,1.5,2.0", "--family", "pt-neumann")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert "result: PASS" in cp.stdout

    def test_kirchhoff_self_adjointness_gated(self):
        cp = run_cli("verify", "--lengths", "1.0,1.5,2.0", "--family", "kirchhoff-ref")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert "ab_symmetry_defect : 0" in cp.stdout
        assert "result: PASS" in cp.stdout

    def test_equal_lengths_warns_incomplete_basis(self):
        cp = run_cli("verify", "--lengths", "1,1,1", "--family", "pt-dirichlet", "--kmax", "4")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert "[WARN]" in cp.stdout
        assert "incomplete" in cp.stdout

    def test_custom_matrices_pass(self, tmp_path: Path):
        # a valid pair: A = identity, B = 0 (pure value conditions)
        rows = []
        for i in range(6):
            a_row = ["1" if j == i else "0" for j in range(6)]
            rows.append(" ".join(a_row + ["0"] * 6))
        path = tmp_path / "ab.txt"
        path.write_text("\n".join(rows) + "\n")
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", f"custom:{path}")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert "rank_ab : 6" in cp.stdout
        assert "result: PASS" in cp.stdout

    def test_rank_deficient_custom_fails(self, tmp_path: Path):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join([" ".join(["0"] * 12)] * 6) + "\n")
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", f"custom:{path}")
        assert cp.returncode == 1
        assert "[FAIL] rank(A|B)" in cp.stdout

    def test_malformed_custom_file(self, tmp_path: Path):
        path = tmp_path / "short.txt"
        path.write_text("1 0\n")
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", f"custom:{path}")
        assert cp.returncode == 2
        assert "--family" in cp.stderr

    @pytest.mark.parametrize("entry, block", [("nan", 0), ("inf", 6)])
    def test_non_finite_custom_entry_is_a_usage_error(self, tmp_path: Path, entry, block):
        # A = identity, B = 0, with one entry of A (block 0) or of B (block 6) non-finite
        rows = [["1" if j == i else "0" for j in range(12)] for i in range(6)]
        rows[2][block + 1] = entry
        path = tmp_path / "ab.txt"
        path.write_text("\n".join(" ".join(r) for r in rows) + "\n")
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", f"custom:{path}")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: --family:") and "finite" in cp.stderr

    @pytest.mark.parametrize("content", [
        None,
        b"\xff\xfe 1 0\n",
        "1 1 1 1 1 1 1 1 1 1 1 1\n" * 5,
        "1 1 1 1 1 1 1 1 1 1 1 1\n" * 7,
        "1 1 1 1 1 1 1 1 1 1 1 1\n" * 5 + "1 1 1 1 1 1 1 1 1 1 1\n",
        "1 1 1 1 1 1 1 1 1 1 1 1\n" * 5 + "1 1 1 1 1 1 1 1 1 1 1 1+\n",
    ], ids=["missing file", "binary file", "2N-1 rows", "2N+1 rows", "4N-1 entries",
            "unparsable entry"])
    def test_custom_file_errors_are_usage_errors(self, tmp_path: Path, content):
        path = tmp_path / "ab.txt"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", f"custom:{path}")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: --family:")

    @pytest.mark.parametrize("content, message", [
        (None, "cannot be read"),
        ("1 0\n", "row 1 must have 12 entries, found 2"),
    ], ids=["missing file", "malformed file"])
    def test_custom_file_error_text(self, tmp_path: Path, content, message):
        path = tmp_path / "ab.txt"
        if content is not None:
            path.write_text(content)
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", f"custom:{path}")
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr.startswith("error: --family: custom matrix file: ")
        assert message in cp.stderr

    @pytest.mark.parametrize("flag, args", [
        ("--kmax", ("--kmax", "-1")),
        ("--out", ("--out", "no-such-directory/report.txt")),
    ])
    def test_flag_errors_come_before_the_custom_file(self, tmp_path: Path, monkeypatch, flag, args):
        monkeypatch.chdir(tmp_path)
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", "custom:missing.txt", *args)
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("family", ["custom", "custom:"])
    def test_custom_family_needs_a_path(self, family):
        cp = run_cli("verify", "--lengths", "1,1.5,2", "--family", family)
        assert cp.returncode == 2
        assert cp.stderr == "error: --family: custom family needs a file path (custom:<path>)\n"

    @pytest.mark.parametrize("args, evaluations", [
        (("--lengths", "1.2,1.45,1.05,1.9", "--kmax", "25"), 4 * 4 * 5),
        (("--lengths", "1,1.3,1.7", "--family", "kirchhoff-ref"), 4 * 3 * 5),
    ])
    def test_endpoints_are_evaluated_once_per_mode(self, monkeypatch, args, evaluations):
        # one trace table per mode: f and f' at both ends of each of the N bonds
        scalar_calls = []
        evaluate = spectral.EigenMode.evaluate

        def counted(self, bond, x, order=0):
            if np.ndim(x) == 0:
                scalar_calls.append((self.k, bond, x, order))
            return evaluate(self, bond, x, order)

        monkeypatch.setattr(spectral.EigenMode, "evaluate", counted)
        cp = run_cli("verify", *args)
        assert cp.returncode == 0
        assert "result: PASS" in cp.stdout
        assert len(scalar_calls) == len(set(scalar_calls)) == evaluations

    def test_report_written_to_file(self, tmp_path: Path):
        out = tmp_path / "report.txt"
        cp = run_cli(
            "verify", "--lengths", "1.0,1.5,2.0", "--family", "kirchhoff-ref", "--out", str(out)
        )
        assert cp.returncode == 0
        assert out.read_text() == cp.stdout


#: prints the child's own peak RSS (kB) after one CLI run; unlike ru_maxrss
#: it does not carry over the forking parent's high-water mark
PEAK_SCRIPT = """import sys, ptgraph.cli as c
rc = c.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print([ln.split()[1] for ln in fh if ln.startswith("VmHWM:")][0])
sys.exit(rc)
"""


def peak_rss_kb(*args: str) -> int:
    cp = run_python("-c", PEAK_SCRIPT, *args)
    assert cp.returncode == 0, cp.stderr
    return int(cp.stdout)


class TestOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ("spectrum", "--lengths", "1,1.3,1.7", "--kmax", "30", "--family", "pt-neumann"),
            ("modes", "--lengths", "1,1.3,1.7", "--kmax", "8", "--resolution", "801"),
            ("evolve", "--lengths", "1,1.3,1.7", "--coeffs", "equal:3", "--tsteps", "50"),
        ],
    )
    def test_stdout_matches_out_file(self, tmp_path: Path, args):
        out = tmp_path / "a.csv"
        to_file = run_cli(*args, "--out", str(out))
        to_stdout = run_cli(*args)
        assert to_file.returncode == 0 and to_stdout.returncode == 0
        assert to_file.stdout == ""
        assert out.read_bytes() == to_stdout.stdout.encode()

    def test_atomic_write_keeps_target_on_error(self, tmp_path: Path):
        target = tmp_path / "a.csv"
        target.write_text("old\n")

        def lines():
            # more than one write buffer reaches the temporary file first
            for i in range(20000):
                yield f"{i},row"
            raise ValueError("formatting failed")

        with pytest.raises(ValueError):
            cli._atomic_write(str(target), lines())
        assert target.read_text() == "old\n"
        assert list(tmp_path.glob(".ptgraph-*.tmp")) == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_modes_memory_does_not_grow_with_artifact(self, tmp_path: Path):
        # the artifact is about 6 MB; held in memory it costs several times that
        common = ("--lengths", "1,1.3,1.7", "--kmax", "26", "--family", "pt-neumann",
                  "--resolution", "4001")
        spectrum = peak_rss_kb("spectrum", *common, "--out", str(tmp_path / "s.csv"))
        modes = peak_rss_kb("modes", *common, "--out", str(tmp_path / "m.csv"))
        assert (tmp_path / "m.csv").stat().st_size > 5_000_000
        assert modes - spectrum < 4 * 1024


def per_cell_fmt(x, precision: int) -> str:
    """The one-value formatter that `cli._column` replaced."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid "-0"
    return format(x, f".{precision}g")


class TestColumn:
    # finite values, signed zeros and infinities; adding 0.0 to a signalling
    # NaN raises a RuntimeWarning, so NaN is left out
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30), st.integers(1, 17))
    def test_matches_per_cell_format(self, values, precision):
        assert cli._column(values, precision) == [per_cell_fmt(v, precision) for v in values]

    def test_edge_values_at_every_precision(self):
        values = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e308, -1e-308, 1.7976931348623157e308, 0.1, -2.5, 123456789.0])
        for precision in range(1, 18):
            want = [per_cell_fmt(v, precision) for v in values]
            assert cli._column(values, precision) == want
            assert [cli._fmt(v, precision) for v in values] == want
        assert cli._column([-0.0], 12) == ["0"]


class TestOutFile:
    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_follows_umask(self, tmp_path: Path, umask, existing):
        target = tmp_path / "r.csv"
        if existing:
            target.write_text("old\n")
            target.chmod(0o640)
        old_umask = os.umask(umask)
        try:
            cp = run_cli("spectrum", "--lengths", "1,1.5,2", "--kmax", "3", "--out", str(target))
        finally:
            os.umask(old_umask)
        assert cp.returncode == 0, cp.stderr
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_bad_target_is_a_usage_error(self, tmp_path: Path, monkeypatch, command, target):
        # the target is checked before any computation starts
        def compute(*args, **kwargs):
            raise AssertionError("computation started before --out was checked")

        monkeypatch.setattr(cli, "find_roots", compute)
        monkeypatch.setattr(cli, "build_basis", compute)
        cp = run_cli(command, "--lengths", "1,1.5,2", "--out", str(tmp_path / target))
        assert cp.returncode == 2
        assert "--out" in cp.stderr
        assert cp.stdout == ""
        assert list(tmp_path.rglob(".ptgraph-*.tmp")) == []


#: the checkout that holds perfbench/, whose configurations use relative paths
REPO = Path(cli_pool.__file__).resolve().parents[1]


class TestArtifacts:
    """The benchmark's configurations write exactly the recorded bytes."""

    @pytest.mark.parametrize("command", ["spectrum", "modes", "evolve", "verify"])
    def test_in_process_run_matches_the_process(self, tmp_path: Path, command):
        # the first configuration of each subcommand: run_cli gives the bytes of the process
        spec = next(s for s in cli_pool.CONFIGS.values() if s.split()[0] == command).split()
        proc, here = tmp_path / "process.out", tmp_path / "in-process.out"
        launched = launch(*spec, "--out", str(proc))
        cp = run_cli(*spec, "--out", str(here))
        assert launched.returncode == 0, launched.stderr
        assert (cp.returncode, cp.stdout, cp.stderr) == (
            launched.returncode, launched.stdout, launched.stderr)
        assert here.read_bytes() == proc.read_bytes()

    @pytest.mark.parametrize("cid", sorted(cli_pool.CONFIGS))
    def test_digest(self, tmp_path: Path, monkeypatch, cid):
        monkeypatch.chdir(REPO)  # the custom: matrix path is relative to the checkout
        out = tmp_path / f"{cid}.out"
        cp = run_cli(*cli_pool.CONFIGS[cid].split(), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert cli_pool.sha256_file(out) == cli_pool.load_digests()[cid]

    def test_resolution_probe(self, tmp_path: Path):
        out = tmp_path / "probe.out"
        cp = launch(*cli_pool.PROBE.split(), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert cli_pool.check_artifact(cli_pool.PROBE, out.read_text()) is None


class TestEntryPoints:
    def test_import_loads_no_test_only_packages(self):
        # hypothesis serves the tests and scipy and mpmath the offline oracles,
        # and only `python -m ptgraph` needs the CLI and argparse; importing
        # any of them at run time would add to every process start
        unwanted = "{'scipy', 'mpmath', 'hypothesis', 'ptgraph.cli', 'argparse'}"
        code = f"import sys, ptgraph; print(sorted({unwanted} & set(sys.modules)))"
        cp = run_python("-c", code)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "[]"

    def test_help(self):
        cp = launch("--help")
        assert cp.returncode == 0
        assert "spectrum" in cp.stdout and "verify" in cp.stdout

    def test_missing_subcommand(self):
        cp = launch()
        assert cp.returncode == 2
