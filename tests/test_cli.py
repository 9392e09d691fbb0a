"""CLI driver: schemas, exit codes, determinism, config file."""

import json
import math
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorspec
from mirrorspec import arith, cli, models, transfer


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mirror_paths_schema_and_summary(capsys):
    code, out, _ = run(["mirror-paths", "--n", "4"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "path_id,bounce_sequence,tau,tau_as_log_of"
    assert lines[1].startswith("0,2-1-2,")
    assert lines[2].startswith("1,4,")
    assert lines[3].startswith("summary,composite,")


def test_mirror_paths_prime(capsys):
    code, out, _ = run(["mirror-paths", "--n", "7"], capsys)
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 3
    assert lines[-1].startswith("summary,prime,")


def test_exit_code_config_error(capsys):
    code, _, err = run(["mirror-paths", "--n", "1"], capsys)
    assert code == 2 and "configuration error" in err
    code, _, err = run(["scan", "--model", "dirichlet", "--grid", "1"], capsys)
    assert code == 2


def test_empty_scan_range_header_only(capsys):
    code, out, _ = run(["scan", "--emin", "5", "--emax", "4", "--grid", "8",
                        "--model", "harmonic"], capsys)
    assert code == 0
    assert out.strip() == "E,theta,verdict,growth_exponent,ci_lo,ci_hi,R_K,Phi_K"


def test_scan_deterministic(tmp_path, capsys):
    base = ["scan", "--model", "harmonic", "--epsilon", "0.3", "--emin", "2",
            "--emax", "4", "--grid", "6", "--kmax", "200"]
    paths = [tmp_path / n for n in ("a.csv", "b.csv")]
    for p in paths:
        assert cli.main(base + ["--out", str(p)]) == 0
    a, b = (p.read_bytes() for p in paths)
    assert a == b


def test_scan_rejects_short_fit_window(capsys):
    # K = 5 leaves one site in the growth fit: a one-line error, not a NaN row
    for model, fmt in (("riemann", "csv"), ("harmonic", "json")):
        code, out, err = run(["scan", "--model", model, "--kmax", "5", "--grid", "2",
                              "--emin", "14", "--emax", "15", "--format", fmt], capsys)
        assert code == 2 and out == ""
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_no_command_accepts_jobs(capsys):
    for name, _ in cli._COMMANDS:
        required = ["--n", "4"] if name == "mirror-paths" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--jobs", "2"] + required)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_zeros_first_row(capsys):
    code, out, _ = run(["zeros", "--emax", "22"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,E_n,Zprime_sign,theta_at_zero,vartheta_star"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 14.134725) < 1e-4
    assert first[2] == "1"
    assert len(lines) == 3  # two zeros below 22


def test_zeros_dirichlet_variant(capsys):
    code, out, _ = run(["zeros", "--modulus", "4", "--char-index", "1",
                        "--emax", "8"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert abs(float(lines[1].split(",")[1]) - 6.0209489) < 1e-4


def test_amp_trace_columns_and_rho_free_model(capsys):
    code, out, _ = run(["amp-trace", "--model", "polylog", "--epsilon", "0",
                        "--emin", "3.0", "--theta", "1.0", "--kmax", "5"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "k,A2_exact,A2_bch,R_k,Phi_k"
    for row in lines[1:]:
        vals = row.split(",")
        assert abs(float(vals[1]) - 2.0) < 1e-12  # no couplings: constant norm
        assert abs(float(vals[3])) < 1e-15


def test_json_format_mirrors_columns(capsys):
    code, out, _ = run(["theta-of-zero", "--grid", "1", "--format", "json"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload[0].keys() == {"n", "E_n", "vartheta_star"}
    assert abs(payload[0]["E_n"] - 14.134725) < 1e-4


def test_xp_spectrum_counts(capsys):
    code, out, _ = run(["xp-spectrum", "--emax", "13"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "E_root,residual,count_formula"
    assert len(lines) == 3
    assert abs(float(lines[1].split(",")[0]) - 9.3259) < 1e-3


def test_perron_convergent_region(capsys):
    code, out, _ = run(["perron", "--sigma", "2", "--emin", "0",
                        "--kmax", "100000", "--grid", "6"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "x,re,im,modulus,log_x_fit"
    last = lines[-1].split(",")
    assert abs(float(last[3]) - 6 / math.pi**2) < 1e-3


def test_perron_rejects_kmax_over_sieve_budget_at_once(capsys):
    # 6e7 > arith._MAX_SIEVE: refused before the grid points below it are sieved
    start = time.perf_counter()
    code, out, err = run(["perron", "--sigma", "0.5", "--emin", "14.13",
                          "--kmax", "60000000", "--grid", "20"], capsys)
    assert code == 2 and out == "" and "sieve" in err
    assert time.perf_counter() - start < 1.0


def test_perron_sieves_once_per_run(capsys):
    arith.moebius_sieve.cache_clear()
    code, out, _ = run(["perron", "--sigma", "0.5", "--emin", "14.13",
                        "--kmax", "20000", "--grid", "20"], capsys)
    assert code == 0 and len(out.splitlines()) == 21
    assert arith.moebius_sieve.cache_info().misses == 1


def test_perron_grid_zero_and_one(capsys):
    code, out, _ = run(["perron", "--grid", "0"], capsys)
    assert code == 0 and out == "x,re,im,modulus,log_x_fit\n"
    code, out, _ = run(["perron", "--sigma", "2", "--emin", "0", "--grid", "1"], capsys)
    assert code == 0
    header, row = out.splitlines()
    x, re_, im, modulus, fit = row.split(",")
    # mu(1..10) = 1, -1, -1, 0, -1, 1, -1, 0, 0, 1; the last term is halved
    mu = [1, -1, -1, 0, -1, 1, -1, 0, 0, 0.5]
    want = math.fsum(m / n**2 for n, m in enumerate(mu, start=1))
    assert x == "10" and fit == "0" and float(im) == 0.0
    assert abs(float(re_) - want) < 1e-15


def test_perron_overflow_exits_3_without_nan_rows(capsys):
    # n^400 overflows a double from n = 6 on, and 0 * inf would be NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["perron", "--sigma", "-400", "--kmax", "1000",
                              "--grid", "3"], capsys)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical error:")


def test_theta_of_zero_modulus_one_finds_the_riemann_zeros(capsys):
    code, out, _ = run(["theta-of-zero", "--modulus", "1", "--char-index", "0",
                        "--grid", "5"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    for n, E, _ in rows:
        assert abs(float(E) - float(mpmath.zetazero(int(n)).imag)) < 1e-9, n
    # the character mod 1 is zeta: both zero commands print zeta's bytes
    assert run(["theta-of-zero", "--grid", "5"], capsys) == (0, out, "")
    mod_one = run(["zeros", "--modulus", "1", "--char-index", "0", "--emax", "40"], capsys)
    assert mod_one == run(["zeros", "--emax", "40"], capsys) and mod_one[0] == 0


@pytest.mark.parametrize("argv", [
    # each misses a close pair that the 0.2 grid steps over: 73.2700 and
    # 73.3986, 246.3028 and 246.4149, 400.6929 and 400.8264
    ["--modulus", "11", "--char-index", "3", "--emax", "100"],
    ["--modulus", "3", "--char-index", "1", "--emax", "300"],
    ["--modulus", "4", "--char-index", "1", "--emax", "1000"],
])
def test_zeros_with_a_missed_pair_exit_3(argv, capsys):
    code, out, err = run(["zeros", *argv], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical error:") and err.count("\n") == 1


def test_zero_count_check_does_not_count_zetas_pole_for_l(capsys):
    # 23 zeros against theta_chi(40)/pi + 1 - 2 = 23.04: the count check
    # would refuse this table if it added zeta's pole term for L
    code, out, _ = run(["zeros", "--modulus", "17", "--char-index", "5",
                        "--emax", "40"], capsys)
    assert code == 0 and len(out.splitlines()) == 24


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=harmonic\nepsilon=0.3\nemin=2\nemax=2\ngrid=1\nkmax=150\n")
    out1 = tmp_path / "o1.csv"
    code = cli.main(["scan", "--config", str(cfg), "--out", str(out1)])
    assert code == 0
    rows = out1.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("2,")
    # explicit flag overrides the file value
    out2 = tmp_path / "o2.csv"
    code = cli.main(["scan", "--config", str(cfg), "--emin", "3", "--emax", "3",
                     "--out", str(out2)])
    assert code == 0
    assert out2.read_text().strip().splitlines()[1].startswith("3,")


def test_float_formatting_roundtrip(capsys):
    code, out, _ = run(["theta-of-zero", "--grid", "1"], capsys)
    val = out.strip().splitlines()[1].split(",")[1]
    assert float(val) == float(format(float(val), ".17g"))
    assert abs(float(val) - 14.1347251417347) < 1e-10


def test_config_before_and_after_subcommand(tmp_path, capsys):
    cfg = tmp_path / "theta.cfg"
    cfg.write_text("# first two zeros\ngrid=2\n")
    code, before, _ = run(["--config", str(cfg), "theta-of-zero"], capsys)
    assert code == 0
    code, after, _ = run(["theta-of-zero", "--config", str(cfg)], capsys)
    assert code == 0
    assert before == after and len(before.strip().splitlines()) == 3
    for argv in (["--config=" + str(cfg), "theta-of-zero"],
                 ["theta-of-zero", "--config=" + str(cfg)]):
        assert run(argv, capsys) == (0, before, "")
    # an explicit flag still wins over the file when the file comes first
    code, out, _ = run(["--config", str(cfg), "theta-of-zero", "--grid", "1"], capsys)
    assert code == 0 and len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("argv", [["theta-of-zero", "--config"], ["--config"],
                                  ["theta-of-zero", "--config="]])
def test_config_without_value(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == "configuration error: --config needs a file path\n"


def test_xp_spectrum_k_underflow_exits_3(capsys):
    code, out, err = run(["xp-spectrum", "--m-ell1", "710"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical error:") and err.count("\n") == 1


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_is_strict_where_norms_overflow(capsys):
    # e^{2R} overflows past R ~ 355: those A2 values are written as null
    code, out, _ = run(["amp-trace", "--model", "harmonic", "--epsilon", "0.3",
                        "--emin", "0", "--theta", "3.14159", "--kmax", "3000",
                        "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)
    assert len(rows) == 3001
    assert rows[-1]["A2_exact"] is None and rows[-1]["A2_bch"] is None
    assert all(isinstance(r["R_k"], float) for r in rows)


def test_bch_norm_exact_at_tuned_phase(capsys):
    # E = 0, vartheta = 0 on the harmonic array: Phi_k = 0, so the one-kick
    # norm is exactly 2 e^{-2R_k}, through R = 300.3 and its log-scale branch,
    # and past R = 372, where 2 e^{-2R} is no longer a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(["amp-trace", "--model", "harmonic", "--epsilon", "0.3",
                            "--emin", "0", "--theta", "0", "--kmax", "3000"], capsys)
        model = models.ModelSpec("harmonic", epsilon=0.3)
        sums = transfer.semiclassical_sums(model, 0.0, 3000)
        log_norm2 = transfer.bch_trace(sums, 0.0).log_norm2
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3001 and float(rows[-1][3]) > 372.0
    for (k, _, a2_bch, R, _), y in zip(rows, log_norm2):
        want = math.log(2) - 2 * float(R)
        assert abs(y - want) <= 1e-12 * abs(want), k
        if want > math.log(2.2250738585072014e-308):  # a normal double
            assert abs(float(a2_bch) - math.exp(want)) <= 1e-12 * math.exp(want), k


@pytest.mark.parametrize("argv", [
    ["perron", "--grid", "-1"],
    ["amp-trace", "--kmax", "-5"],
    ["scan", "--kmax", "-3"],
    ["theta-of-zero", "--grid", "-1"],
    ["xp-spectrum", "--emax", "inf"],
    ["zeros", "--emax", "nan"],
    ["xp-spectrum", "--emax", "nan"],
    ["scan", "--emin", "nan"],
    ["scan", "--epsilon", "-inf"],
    ["xp-spectrum", "--m-ell1", "nan"],
    ["mirror-paths", "--n", "4", "--max-depth", "1"],
])
def test_bad_numeric_input_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument {argv[-2]}:" in err and "Traceback" not in err


_energy = st.floats(0.0, 30.0)
_SMALL_RUNS = {
    "scan": st.builds(lambda model, e: ["scan", "--model", model, "--emin", repr(e),
                                        "--emax", repr(e + 1.0), "--grid", "3", "--kmax", "40"],
                      st.sampled_from(["harmonic", "riemann"]), _energy),
    "zeros": st.builds(lambda e, mod: ["zeros", "--emax", repr(e)] + mod,
                       st.floats(5.0, 30.0),
                       st.sampled_from([[], ["--modulus", "4", "--char-index", "1"]])),
    "amp-trace": st.builds(lambda e, th: ["amp-trace", "--model", "harmonic", "--emin",
                                          repr(e), "--theta", repr(th), "--kmax", "30"],
                           _energy, st.floats(-math.pi, math.pi)),
    "mirror-paths": st.builds(lambda n: ["mirror-paths", "--n", str(n)], st.integers(2, 60)),
    "xp-spectrum": st.builds(lambda e: ["xp-spectrum", "--emax", repr(e)],
                             st.floats(1.0, 12.0)),
    "theta-of-zero": st.builds(lambda n: ["theta-of-zero", "--grid", str(n)],
                               st.integers(0, 4)),
    "perron": st.builds(lambda k, e: ["perron", "--sigma", "0.5", "--emin", repr(e),
                                      "--kmax", str(k), "--grid", "4"],
                        st.integers(10, 2000), _energy),
}


def _same_value(text: str, value) -> bool:
    """A CSV field and the JSON value of the same cell agree exactly."""
    if value is None:  # JSON null stands for a non-finite float
        return not math.isfinite(float(text))
    if isinstance(value, str):
        return text == value
    return type(value)(text) == value


@pytest.mark.parametrize("command", [name for name, _ in cli._COMMANDS])
def test_csv_and_json_carry_the_same_values(command, capsys):
    @settings(max_examples=4)
    @given(_SMALL_RUNS[command])
    def check(argv):
        code, csv_out, _ = run(argv, capsys)
        assert code == 0
        code, json_out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        header, *lines = csv_out.strip().splitlines()
        rows = json.loads(json_out)
        assert len(rows) == len(lines)
        for line, row in zip(lines, rows):
            assert list(row) == header.split(",")
            assert all(map(_same_value, line.split(","), row.values())), (line, row)

    check()


def test_no_scipy_on_the_import_path():
    # every CLI call pays for what `import mirrorspec.cli` loads
    src = Path(mirrorspec.__file__).resolve().parents[1]
    probe = ("import sys, mirrorspec.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
    imports_scipy = re.compile(r"^\s*(from|import)\s+scipy\b", re.M)
    root = Path(__file__).resolve().parents[1]
    files = [*(src / "mirrorspec").rglob("*.py"), *(root / "tests").rglob("*.py")]
    assert files and not [f.name for f in files if imports_scipy.search(f.read_text())]
