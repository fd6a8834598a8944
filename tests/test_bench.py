import json
import math
import random
import re
import statistics

import pytest

from comhash import BenchError
from comhash.bench import (
    REFERENCE_TIMINGS,
    BenchPoint,
    LinearFit,
    bench_params,
    fit_points,
    linear_fit,
    read_csv,
    read_reference_csv,
    reference_fit,
    run_bench,
    write_csv,
)
from comhash import bench, cli, groups, hashing, protocol
from comhash.net import run_basic_session


def test_exact_line_recovered():
    fit = linear_fit([(1, 3.0), (2, 5.0), (3, 7.0)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_singular_inputs_rejected():
    with pytest.raises(ValueError):
        linear_fit([(4, 1.0), (4, 2.0), (4, 3.0)])
    with pytest.raises(ValueError):
        linear_fit([(4, 1.0)])
    with pytest.raises(ValueError):
        linear_fit([(4, float("nan")), (8, 0.058)])
    with pytest.raises(ValueError):
        linear_fit([(4, 0.03), (8, float("inf"))])


def test_reference_fit_ec_column():
    fit = reference_fit("ec")
    # frozen from the closed-form least-squares oracle over the 13 rows
    assert fit.slope == pytest.approx(0.00796675228276824, rel=1e-9)
    assert fit.intercept == pytest.approx(-0.733436291739892, rel=1e-9)
    assert fit.r_squared == pytest.approx(0.9984174277223707, rel=1e-9)
    # and it lands on the published coefficients
    assert abs(fit.slope - 0.008) <= 0.05 * 0.008
    assert abs(fit.intercept - (-0.733)) <= 0.05


def test_reference_fit_modp_column():
    fit = reference_fit("modp")
    assert fit.slope == pytest.approx(0.13092224242567446, rel=1e-9)
    assert fit.intercept == pytest.approx(-42.06310391036908, rel=1e-9)
    assert abs(fit.slope - 0.13) <= 0.05 * 0.13


def test_noisy_line_recovered_within_3_sigma():
    # uniform noise of half-width eps has variance eps^2 / 3
    slope_true, intercept_true, eps = 0.004, -0.2, 0.05
    xs = [float(x) for x in (4, 8, 16, 32, 64, 128, 256, 512)]
    n = len(xs)
    xbar = statistics.fmean(xs)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sigma = eps / math.sqrt(3.0)
    se_slope = sigma / math.sqrt(sxx)
    se_intercept = sigma * math.sqrt(1.0 / n + xbar**2 / sxx)
    rng = random.Random(314)
    hits = 0
    for _ in range(100):
        pts = [(x, slope_true * x + intercept_true + rng.uniform(-eps, eps))
               for x in xs]
        fit = linear_fit(pts)
        if (abs(fit.slope - slope_true) <= 3 * se_slope
                and abs(fit.intercept - intercept_true) <= 3 * se_intercept):
            hits += 1
    assert hits >= 99  # 3-sigma misses should be rare


def test_run_bench_single_trial(toy_subgroup):
    points = run_bench("modp", [4], trials=1, seed=5, params=toy_subgroup)
    assert len(points) == 1
    p = points[0]
    assert (p.backend, p.n, p.trials) == ("modp", 4, 1)
    assert p.mean_s > 0 and p.stddev_s == 0.0


def test_run_bench_full_size_sweep_shape(toy_subgroup):
    sizes = [4 * 2**i for i in range(13)]  # 4 .. 16384
    points = run_bench("modp", sizes, trials=1, seed=6, params=toy_subgroup)
    assert [p.n for p in points] == sizes
    assert len(points) == 13
    # time grows with the participant count at the large end
    assert points[-1].mean_s > points[0].mean_s


@pytest.mark.parametrize("backend", ["ec", "modp"])
def test_run_bench_builds_every_comb_table_in_setup(backend, monkeypatch):
    # a table built, or a share decoded, inside a timed trial would time
    # that work too
    tables = (groups._generator_tables, groups._key_tables, groups._glv_constants,
              protocol._share_element)
    for table in tables:
        table.cache_clear()
    built = []

    def timed(*args, **kwargs):
        before = [table.cache_info().misses for table in tables]
        outcome = run_basic_session(*args, **kwargs)
        built.append([table.cache_info().misses - b for table, b in zip(tables, before)])
        return outcome

    monkeypatch.setattr(bench, "run_basic_session", timed)
    run_bench(backend, [1, 2], trials=2, seed=8)
    assert built == [[0, 0, 0, 0]] * 4


def test_run_bench_times_sizes_round_robin_on_kept_shares(toy_subgroup, monkeypatch):
    # trial-major order spreads a drift in host speed over every size, and
    # each member share is kept from set-up, so a timed session builds its
    # owner's share from the kept one and never calls cvhp
    shares = []

    def cvhp(*args, _cvhp=hashing.cvhp):
        shares.append(args)
        return _cvhp(*args)
    monkeypatch.setattr(hashing, "cvhp", cvhp)
    timed = []

    def counted(params, keys, *args, **kwargs):
        before = len(shares)
        outcome = run_basic_session(params, keys, *args, **kwargs)
        timed.append((len(keys), len(shares) - before))
        return outcome

    monkeypatch.setattr(bench, "run_basic_session", counted)
    run_bench("modp", [2, 3, 4], trials=2, seed=9, params=toy_subgroup)
    assert timed == [(2, 0), (3, 0), (4, 0)] * 2


def test_run_bench_rejects_bad_args(toy_subgroup):
    with pytest.raises(BenchError):
        run_bench("modp", [4], trials=0, params=toy_subgroup)
    with pytest.raises(BenchError):
        run_bench("modp", [0], trials=1, params=toy_subgroup)


def test_bench_params_selects_backend():
    assert bench_params("ec", 8).name == "toy17"
    assert bench_params("modp", 5).modulus == 23


def test_csv_round_trip(tmp_path, toy_subgroup):
    points = run_bench("modp", [4, 8], trials=2, seed=7, params=toy_subgroup)
    path = tmp_path / "out.csv"
    write_csv(points, str(path))
    loaded = read_csv(str(path))
    assert [(p.backend, p.n, p.trials) for p in loaded] == \
        [(p.backend, p.n, p.trials) for p in points]
    assert loaded[0].mean_s == pytest.approx(points[0].mean_s, abs=1e-9)


def test_read_reference_csv_matches_builtin(tmp_path):
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        fh.write("participants,ec_seconds,modp_seconds\n")
        for n, ec, modp in REFERENCE_TIMINGS:
            fh.write(f"{n},{ec},{modp}\n")
    rows = read_reference_csv(str(path))
    assert tuple(rows) == REFERENCE_TIMINGS
    fit = reference_fit("ec", rows)
    assert fit.slope == pytest.approx(0.00796675228276824, rel=1e-9)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_bench_writes_csv_and_fit(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--backend", "modp", "--bits", "5",
                   "--sizes", "2,4,8", "--trials", "2", "--seed", "3",
                   "--out", str(out), "--fit"])
    assert rc == 0
    rows = read_csv(str(out))
    assert [p.n for p in rows] == [2, 4, 8]
    fit = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(fit) == {"slope", "intercept", "r2"}


def test_cli_bench_stdout_table(capsys):
    rc = cli.main(["bench", "--backend", "ec", "--bits", "8",
                   "--sizes", "2,3", "--trials", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "backend,N,trials,mean_s,stddev_s"
    assert len(lines) == 3


def test_cli_bench_stdout_and_out_file_are_the_same_bytes(tmp_path, capsysbinary, monkeypatch):
    points = [BenchPoint("modp", 2, 1, 0.25, 0.0), BenchPoint("modp", 3, 1, 1 / 3, 0.125)]
    monkeypatch.setattr(cli.bench, "run_bench", lambda *args, **kwargs: points)
    argv = ["bench", "--backend", "modp", "--bits", "5", "--sizes", "2,3", "--trials", "1"]
    assert cli.main(argv) == 0
    printed = capsysbinary.readouterr().out
    out = tmp_path / "bench.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed == (b"backend,N,trials,mean_s,stddev_s\n"
                                           b"modp,2,1,0.250000000,0.000000000\n"
                                           b"modp,3,1,0.333333333,0.125000000\n")


def test_cli_verify_bundled_table(capsys):
    rc = cli.main(["verify"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["ec"]["slope"] - 0.008) <= 0.05 * 0.008
    assert abs(report["ec"]["intercept"] + 0.733) <= 0.05
    assert abs(report["modp"]["slope"] - 0.13) <= 0.05 * 0.13
    assert 0.0 <= report["ec"]["r2"] <= 1.0


def test_cli_verify_explicit_table(tmp_path, capsys):
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        fh.write("participants,ec_seconds,modp_seconds\n")
        fh.write("1,1.0,2.0\n2,2.0,4.0\n3,3.0,6.0\n")
    rc = cli.main(["verify", "--table1", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ec"]["slope"] == pytest.approx(1.0)
    assert report["modp"]["slope"] == pytest.approx(2.0)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ("a,b\n1,2\n", "missing column(s) participants, ec_seconds, modp_seconds"),
    ("participants,ec_seconds\n1,1.0\n", "missing column(s) modp_seconds"),
    ("participants,ec_seconds,modp_seconds\n1,fast,2.0\n", "fast"),
    ("participants,ec_seconds,modp_seconds\n4,0.1\n8,0.2,0.3\n",
     "line 2 has fewer fields than the header"),
    ("participants,ec_seconds,modp_seconds\n4,0.1,0.2,9\n8,0.2,0.3\n",
     "line 2 has more fields than the header"),
    ("participants,ec_seconds,modp_seconds\n4,0.1,0.2\n",
     "need rows at two or more participant counts"),
    ("participants,ec_seconds,modp_seconds\n4,0.1,0.2\n4,0.3,0.4\n",
     "need rows at two or more participant counts"),
    ("participants,ec_seconds,modp_seconds\n4,nan,0.28\n8,0.058,0.3\n",
     "line 2 needs a positive participant count and finite seconds"),
    ("participants,ec_seconds,modp_seconds\n4,0.03,0.28\n8,0.058,inf\n",
     "line 3 needs a positive participant count and finite seconds"),
    ("participants,ec_seconds,modp_seconds\n0,0.03,0.28\n8,0.058,0.3\n",
     "line 2 needs a positive participant count and finite seconds"),
])
def test_cli_verify_reports_a_bad_table(content, message, tmp_path, capsys):
    path = tmp_path / "table.csv"
    if content is not None:
        path.write_text(content)
    with pytest.raises(BenchError, match=re.escape(message)):
        read_reference_csv(str(path))
    assert cli.main(["verify", "--table1", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("comhash: error: ") and message in err


def test_cli_rejects_bad_sizes():
    with pytest.raises(SystemExit):
        cli.main(["bench", "--backend", "modp", "--sizes", "4,-2"])


@pytest.mark.parametrize("trials", ["0", "-3", "two"])
def test_cli_rejects_bad_trials(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--backend", "ec", "--bits", "5", "--trials", trials,
                  "--sizes", "2"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("extra, flag", [
    pytest.param(["--sizes", "64", "--fit"], "--fit", id="64"),
    pytest.param(["--sizes", "8,8", "--fit"], "--fit", id="8,8"),
    # a curve has no primitive mode; the option is refused, not ignored
    pytest.param(["--sizes", "2,3", "--mode", "primitive"], "--mode", id="ec-primitive"),
])
def test_cli_fit_needs_two_distinct_sizes(extra, flag, capsys, monkeypatch):
    def no_session(*args, **kwargs):
        raise AssertionError("a session ran before the arguments were checked")

    monkeypatch.setattr(cli.bench, "run_bench", no_session)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--backend", "ec", "--bits", "5", "--trials", "1", *extra])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_checks_the_out_path_before_any_session(tmp_path, capsys, monkeypatch):
    def no_session(*args, **kwargs):
        raise AssertionError("a session ran before the output path was checked")

    monkeypatch.setattr(cli.bench, "run_bench", no_session)
    path = tmp_path / "absent" / "x.csv"
    rc = cli.main(["bench", "--backend", "ec", "--bits", "5", "--sizes", "2",
                   "--trials", "1", "--out", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"comhash: error: cannot write {path}: ")
    assert not path.parent.exists()


def test_cli_reports_library_errors_without_traceback(capsys):
    rc = cli.main(["bench", "--backend", "modp", "--bits", "7000", "--sizes", "2",
                   "--trials", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "comhash: error: unsupported modp size: 7000\n"


def test_cli_reports_an_unwritable_out_path(tmp_path, capsys):
    path = tmp_path / "absent" / "x.csv"
    rc = cli.main(["bench", "--backend", "ec", "--bits", "5", "--sizes", "2",
                   "--trials", "1", "--out", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"comhash: error: cannot write {path}: ")
    assert not path.parent.exists()
