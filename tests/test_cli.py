"""Command-line contract: CSV shape, checks, exit codes, determinism."""

import csv
import math

import pytest

from logdamp import norms
from logdamp.cli import main
from logdamp.modes import InitialDataSpec
from logdamp.quadrature import EvaluationError


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_special_default_passes(tmp_path):
    code, text = run(tmp_path, "special")
    assert code == 0
    assert "# checks=PASS" in text
    rows = parse_rows(text)
    assert set(rows[0]) == {"p", "t", "I_p", "I_p_scaled", "J_p",
                            "J_p_scaled", "gamma_ratio",
                            "h0_identity_relerr"}
    for row in rows:
        err = float(row["h0_identity_relerr"])
        assert err < 1e-10


def test_special_row_at_unit_time(tmp_path):
    _, text = run(tmp_path, "special")
    rows = parse_rows(text)
    first = [r for r in rows if float(r["p"]) == 0.0
             and float(r["t"]) == 1.0][0]
    assert float(first["I_p"]) == pytest.approx(math.pi / 4.0, abs=1e-7)


def test_special_zero_tolerance_fails(tmp_path):
    code, text = run(tmp_path, "special", "--tol", "0")
    assert code == 1
    assert "# checks=FAIL" in text
    fails = [ln for ln in text.splitlines() if ln.startswith("# FAIL")]
    assert fails
    assert len(fails) == len(set(fails))  # each failure printed once


def test_special_scaled_tail_is_finite_at_large_t(tmp_path):
    code, text = run(tmp_path, "special", "--t-max", "1e4")
    assert code == 0
    assert "# checks=PASS" in text
    rows = parse_rows(text)
    for row in rows:
        if float(row["t"]) > 1.0:
            assert math.isfinite(float(row["J_p_scaled"]))
    exact = [r for r in rows if float(r["p"]) == 1.0 and float(r["t"]) > 1.0]
    assert {r["J_p_scaled"] for r in exact} == {"1.000000000000e+00"}


def test_config_hash_present(tmp_path):
    _, text = run(tmp_path, "special")
    assert any(ln.startswith("# config=") for ln in text.splitlines())


def test_lemmas_all_pass_and_deterministic(tmp_path):
    code1, text1 = run(tmp_path, "lemmas", "--samples", "60", "--seed", "5")
    assert code1 == 0
    for row in parse_rows(text1):
        assert row["status"] == "PASS"
    names = {row["name"] for row in parse_rows(text1)}
    assert {"damping_ratio_bound", "recurrence_consistency",
            "tail_sandwich", "log_operator_relative_bound",
            "phi_maximum", "energy_monotone",
            "mode_closure_identity"} <= names
    code2, text2 = run(tmp_path, "lemmas", "--samples", "60", "--seed", "5")
    assert code2 == 0
    assert text1 == text2  # byte-identical rerun under a pinned seed


def _bands(text):
    """{n: ratio} from the decay band lines."""
    return {int(ln.split()[1][2:]): float(ln.split("ratio=")[1].split()[0])
            for ln in text.splitlines()
            if ln.startswith("# n=") and "squared-norm/rate" in ln}


def test_decay_slopes(tmp_path):
    # One verdict for every n: max/min of ||u(t)||^2 / F_n(t), with
    # F_1 = t, F_2 = log 4t + gamma and F_n = t^(-(n-2)/2).
    code, text = run(tmp_path, "decay", "--t-points", "10", "--dim", "1,2,3,4")
    assert code == 0
    assert "# checks=PASS" in text
    bands = _bands(text)
    assert sorted(bands) == [1, 2, 3, 4]
    assert all(1.0 <= b <= 1.06 for b in bands.values())
    assert "# n=2 squared-norm/rate ratio=1.0012 limit=1.25" in text
    for row in parse_rows(text):
        n, t, norm = int(row["n"]), float(row["t"]), float(row["norm"])
        rate = {1: t, 2: math.log(4.0 * t) + 0.5772156649015329}.get(
            n, t ** (-(n - 2) / 2.0))
        assert float(row["scaled"]) == pytest.approx(norm / math.sqrt(rate),
                                                     rel=1e-12)


def test_decay_in_four_dimensions(tmp_path):
    code, text = run(tmp_path, "decay", "--dim", "4")
    assert code == 0 and "# checks=PASS" in text
    assert _bands(text)[4] <= 1.01


def test_profile_scaled_band(tmp_path):
    code, text = run(tmp_path, "profile", "--t-points", "7")
    assert code == 0
    rows = parse_rows(text)
    assert set(rows[0]) == {"n", "t", "residual", "scaled", "I0"}
    for row in rows:
        assert float(row["scaled"]) <= float(row["I0"])


def test_profile_without_velocity_mass_still_runs(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("u0_family = gaussian\nu1_family = zero\n")
    code, text = run(tmp_path, "profile", "--config", str(cfg),
                     "--t-points", "6", "--dim", "1")
    assert code == 0
    rows = parse_rows(text)
    assert all(float(r["residual"]) > 0.0 for r in rows)


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment line\ndim = 3\nt_points = 6\n")
    code, text = run(tmp_path, "profile", "--config", str(cfg),
                     "--t-points", "7")
    assert code == 0
    rows = parse_rows(text)
    assert {r["n"] for r in rows} == {"3"}   # from the file
    assert len(rows) == 7                    # flag beats the file


def _zero_data_config(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("u1_family = zero\n")
    return str(cfg)


def test_decay_at_tiny_amplitude_fits_as_at_unit_amplitude(tmp_path,
                                                           capsys):
    # The norms are computed on data scaled to a unit transform sup, so
    # they do not underflow at amplitude 1e-200; the band is taken on
    # ||u|| / sqrt(F_n), whose square (1e-400) would.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("u1_amplitude = 1e-200\n")
    code, text = run(tmp_path, "decay", "--config", str(cfg), "--dim", "3",
                     "--t-points", "5")
    assert code == 0
    assert "error:" not in capsys.readouterr().err
    _, unit = run(tmp_path, "decay", "--dim", "3", "--t-points", "5")

    def band(csv_text):
        return [ln for ln in csv_text.splitlines() if "ratio=" in ln]

    assert band(text) == band(unit) and len(band(text)) == 1
    for row, ref in zip(parse_rows(text), parse_rows(unit)):
        assert float(row["norm"]) == pytest.approx(1e-200 * float(ref["norm"]),
                                                   rel=1e-9)


def test_decay_to_t_1e12_certifies_every_row(tmp_path, capsys):
    # Half-period panels refused t above about 2e9 (the 200 000-panel
    # cap); the mean part and contour take the same work at every t.
    code, text = run(tmp_path, "decay", "--t-max", "1e12")
    assert "error:" not in capsys.readouterr().err
    rows = parse_rows(text)
    assert len(rows) == 60 and all(float(r["norm"]) > 0.0 for r in rows)
    # ||u||^2 / log t read 1.3302 over [1e2, 1e12] and failed its 1.25
    # band while the norms were right; over log 4t + gamma it is flat.
    assert code == 0 and "# checks=PASS" in text
    assert _bands(text) == {1: 1.06, 2: 1.0012, 3: 1.0}


def test_decay_of_a_wide_datum_with_a_tiny_amplitude(tmp_path, capsys):
    # width^3 overflows at width 1e103, the transform at 0 (1.6e10) does
    # not: the prefactor is formed scale-safely.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("u0_family = gaussian\nu0_amplitude = 1e-300\n"
                   "u0_width = 1e103\n")
    code, text = run(tmp_path, "decay", "--config", str(cfg), "--dim", "3",
                     "--t-points", "5")
    assert "error:" not in capsys.readouterr().err
    assert code == 0 and "# checks=PASS" in text
    assert len(parse_rows(text)) == 5


def test_decay_of_a_wide_velocity_datum_prints_every_row(tmp_path, capsys):
    # The velocity's transform is a spike of width 1e-103 at r = 0, which
    # no abscissa saw while the envelope's data side held only from
    # r = 1: the run ended on "error: l2_norm at t=100.0 did not
    # converge".  Now every norm is t ||u1|| (to (t/width)^2), so
    # ||u||^2 / t^(-1/2) grows like t^2.5 and the band check fails, as it
    # should this far from the decay regime (t >> width^2).
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("u1_amplitude = 1e-300\nu1_width = 1e103\n")
    code, text = run(tmp_path, "decay", "--config", str(cfg), "--dim", "3")
    assert "error:" not in capsys.readouterr().err
    rows = parse_rows(text)
    assert len(rows) == 20
    u1 = InitialDataSpec("gaussian", 1e-300, 1e103, 3)
    for row in rows:
        assert float(row["norm"]) == pytest.approx(
            float(row["t"]) * u1.l2_norm(), rel=1e-10)
    fails = [ln for ln in text.splitlines() if ln.startswith("# FAIL")]
    assert code == 1 and fails == [
        "# FAIL n=3 squared norm/rate ratio 31622776.6017"]


def test_profile_to_t_1e12_certifies_every_row(tmp_path, capsys):
    # The difference integrand hit the 200 000-panel cap from t = 1e7 on
    # (error: residual_norm at t=10000000.0 did not converge); the mean
    # part and contour take the same work at every t.
    code, text = run(tmp_path, "profile", "--t-max", "1e12")
    assert "error:" not in capsys.readouterr().err
    rows = parse_rows(text)
    assert len(rows) == 27 and all(float(r["residual"]) > 0.0 for r in rows)
    assert code == 0 and "# checks=PASS" in text


def test_profile_of_a_wide_datum_with_a_tiny_amplitude(tmp_path, capsys):
    # width^4 overflowed in I0's first moment at width 1e103, and the run
    # stopped on an error line that named no site.  The transform has
    # left u1_hat ~ 0 for r >> 1e-103, so the residual is the profile
    # norm P1 (2 pi)^(-3/2) sqrt(M_sin(t)), and the scaled residual grows
    # like sqrt(t).  So the band check fails, as it should: u nears the
    # profile only once t >> width^2 = 1e206.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("u1_amplitude = 1e-300\nu1_width = 1e103\n")
    code, text = run(tmp_path, "profile", "--config", str(cfg), "--dim", "3")
    assert "error:" not in capsys.readouterr().err
    rows = parse_rows(text)
    assert len(rows) == 9
    u1 = InitialDataSpec("gaussian", 1e-300, 1e103, 3)
    for row in rows:
        # I0 is the first moment omega_3 Gamma(2) (2 w^2)^2 / 2 = 8 pi w^4
        # times the amplitude, up to terms 1e-100 smaller.
        assert float(row["I0"]) == pytest.approx(8.0 * math.pi * 1e112,
                                                 rel=1e-12)
        t = float(row["t"])
        profile = u1.mass() * math.sqrt((2.0 * math.pi) ** -3
                                        * norms.M_integral(t, 3, "sin"))
        assert float(row["residual"]) == pytest.approx(profile, rel=1e-9)
    fails = [ln for ln in text.splitlines() if ln.startswith("# FAIL")]
    assert code == 1 and fails == ["# FAIL n=3 scaled residual ratio 9.9814"]


@pytest.mark.parametrize("dim, amplitude, width", [
    ("2", "1e-300", "1e120"), ("3", "1e-250", "1e80")])
def test_profile_of_wide_data_prints_every_row(tmp_path, capsys, dim,
                                               amplitude, width):
    # I0's first moment is a tiny amplitude times width^(n+1), which
    # overflowed as a plain power, (2 width^2)^((n+1)/2), and ended the
    # run on error: (34, 'Numerical result out of range').
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"u1_amplitude = {amplitude}\nu1_width = {width}\n")
    code, text = run(tmp_path, "profile", "--config", str(cfg), "--dim", dim)
    assert "error:" not in capsys.readouterr().err
    rows = parse_rows(text)
    assert len(rows) == 9
    assert all(math.isfinite(float(r["I0"])) and float(r["residual"]) > 0.0
               for r in rows)
    # As for width 1e103 above, u is far from the profile until
    # t >> width^2, so only the band check may fail.
    fails = [ln for ln in text.splitlines() if ln.startswith("# FAIL")]
    assert code == len(fails) == 1
    assert fails[0].startswith(f"# FAIL n={dim} scaled residual ratio")


def test_profile_with_a_first_moment_outside_the_doubles(tmp_path, capsys):
    # In 3-D the first moment of this datum is 2.5e309, so I0 is inf; a
    # run on such a datum (amplitude 1e-300, width 1e154, moment 2.5e317)
    # ended on `error: math range error`, which names no site.  Now every
    # row prints and the I0 check says it does not apply.  (That datum
    # itself is now refused: see the next test.)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("u1_amplitude = 1e-96\nu1_width = 1e101\n")
    _, text = run(tmp_path, "profile", "--config", str(cfg), "--dim", "3")
    assert "error:" not in capsys.readouterr().err
    rows = parse_rows(text)
    assert len(rows) == 9 and all(r["I0"] == "inf" for r in rows)
    assert "# n=3 I0 check not applicable (I0 = inf)" in text.splitlines()


def test_profile_refuses_data_that_underflow_when_scaled(tmp_path, capsys):
    # The norms scale the pair to a unit transform sup; for this datum
    # (transform at 0 1.6e163) that takes the amplitude 1e-300 to 0.0, and
    # the zero pair printed a residual of 0 on every row and checks=PASS
    # (ROADMAP defect 13).  Now the first norm names its site and stops.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("u1_amplitude = 1e-300\nu1_width = 1e154\n")
    code, text = run(tmp_path, "profile", "--config", str(cfg), "--dim", "3")
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and "checks=PASS" not in text
    assert err == ["error: residual_norm at t=100.0: the data underflow when "
                   "scaled to a unit transform sup"]


@pytest.mark.parametrize("command", ["decay", "profile", "lemmas"])
def test_width_whose_square_overflows_is_a_config_error(tmp_path, capsys,
                                                        command):
    # The transform at 0 is an ordinary double, but width^2 = 1e320 is
    # not: the datum is refused by name before any norm squares it.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("u1_amplitude = 1e-300\nu1_width = 1e160\n")
    code, _ = run(tmp_path, command, "--config", str(cfg), "--dim", "2")
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(
        "error: invalid config: width 1e+160 in dimension 2: ")


def test_lemmas_with_zero_data_divides_nothing_by_zero(tmp_path, capsys):
    code, text = run(tmp_path, "lemmas", "--config",
                     _zero_data_config(tmp_path), "--samples", "20")
    assert code == 0
    assert "error:" not in capsys.readouterr().err
    rows = {r["name"]: r for r in parse_rows(text)}
    # All-zero pairs are skipped, and only checked dimensions count.
    for name in ("high_band_envelope", "energy_monotone"):
        assert rows[name]["samples"] == "0"
        assert rows[name]["status"] == "PASS"


def test_decay_with_zero_data_names_the_missing_fit(tmp_path, capsys):
    code, text = run(tmp_path, "decay", "--config",
                     _zero_data_config(tmp_path), "--dim", "1,2,3",
                     "--t-points", "5")
    assert code == 0
    assert "error:" not in capsys.readouterr().err
    notes = [ln for ln in text.splitlines() if "zero data" in ln]
    assert notes == [f"# n={n} zero data: no rate to check"
                     for n in (1, 2, 3)]
    assert all(float(r["norm"]) == 0.0 for r in parse_rows(text))
    assert "# checks=PASS" in text


def test_single_point_grid_is_a_config_error(tmp_path, capsys):
    assert main(["profile", "--t-points", "1"]) == 2
    assert main(["decay", "--t-points", "1"]) == 2
    # A band needs two points, not the five a slope fit did.
    assert main(["decay", "--t-points", "2", "--dim", "3"]) == 0


def test_non_finite_time_is_a_config_error(capsys):
    assert main(["decay", "--t-max", "inf"]) == 2
    assert main(["profile", "--t-min", "inf"]) == 2
    assert main(["special", "--t-max", "nan"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(ln.startswith("error: invalid config: t_min/t_max")
               for ln in err)


def test_uncertified_quantity_is_one_error_line(tmp_path, capsys):
    # The n = 3 residual cannot be certified at t = 1.
    code, _ = run(tmp_path, "profile", "--t-min", "1", "--t-max", "10",
                  "--dim", "3", "--t-points", "3")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: residual_norm at t=1.0 did not converge\n")


def test_time_whose_square_is_not_a_double_is_one_domain_error(tmp_path,
                                                              capsys):
    # This run ended on "error: (34, 'Numerical result out of range')".
    code, text = run(tmp_path, "decay", "--dim", "1", "--t-min", "1e190",
                     "--t-max", "1e200", "--t-points", "5")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: l2_norm at t=1e+190: t must be finite with t^2 a double "
        "(|t| <= 1.34e154)\n")


def test_evaluation_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A non-finite integrand value raises EvaluationError, a RuntimeError.
    def l2_norm(*args, **kwargs):
        raise EvaluationError("integrand returned a non-finite value at "
                              "r=0.5")

    monkeypatch.setattr(norms, "l2_norm", l2_norm)
    code, text = run(tmp_path, "decay", "--dim", "1", "--t-points", "5")
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (
        "error: integrand returned a non-finite value at r=0.5\n")


def test_special_fails_a_non_finite_peak_integral(tmp_path):
    # I_p underflows to 0 and t^2 overflows, so I_p_scaled is nan for
    # p = 2 and 3; the band's max/min let it pass as checks=PASS.  I_p is
    # held to max(1e-300, 1e-12 I_p): for p = 1 (I_1 ~ 1/(2t)) that is
    # absolute on the whole grid, and at t = 1e300 I_1 t read
    # 4.999999184851e-01 for 0.5 and passed the band.
    code, text = run(tmp_path, "special", "--t-min", "1e290",
                     "--t-max", "1e300")
    assert code == 1 and text.endswith("# checks=FAIL\n")
    fails = [ln for ln in text.splitlines() if ln.startswith("# FAIL")]
    assert len(fails) == 12
    assert {ln.split()[3] for ln in fails} == {"p=1.0", "p=2.0", "p=3.0"}
    assert ("# FAIL peak-integral p=3.0 t=1e+300: I_p=0.000e+00 is "
            "certified only to 1e-300 absolute") in fails
    assert ("# FAIL peak-integral p=1.0 t=1e+300: I_p=5.000e-301 is "
            "certified only to 1e-300 absolute") in fails


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("velocity = 3\n")
    assert main(["decay", "--config", str(cfg)]) == 2


def test_bad_data_family(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("u1_family = spline\n")
    assert main(["decay", "--config", str(cfg)]) == 2


def test_missing_config_file():
    assert main(["decay", "--config", "/nonexistent/x.cfg"]) == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    # Each command's help says what its own --tol bounds.
    tol_help = {"special": "limit on the relative error of the h0 identity",
                "lemmas": None,
                "decay": "limit on the max/min ratio of the squared norm "
                          "over its rate",
                "profile": "limit on the max/min ratio of the scaled residual"}
    for command, text in tol_help.items():
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert ("--tol" in out) == (text is not None)
        if text is not None:
            assert f"--tol TOL {text} " in out


def test_profile_outside_its_domain_is_one_domain_error(tmp_path, capsys):
    # n = 3 needs 2t > 1; at t = 0.5 the residual is infinite.
    code, _ = run(tmp_path, "profile", "--t-min", "0.5", "--t-max", "10",
                  "--dim", "3", "--t-points", "3")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: residual_norm at t=0.5: ")


# -- each command takes only the options it reads ----------------------------

_DATA_KEYS = ("u0_family", "u0_amplitude", "u0_width",
              "u1_family", "u1_amplitude", "u1_width")
# The 21 (command, option) pairs where the command does not read the option.
_UNREAD = ([("special", k) for k in ("dim", "seed", "samples", "i0_multiple",
                                     *_DATA_KEYS)]
           + [("lemmas", k) for k in ("t_min", "t_max", "t_points",
                                      "log_grid", "tol", "i0_multiple")]
           + [("decay", k) for k in ("seed", "samples", "i0_multiple")]
           + [("profile", k) for k in ("seed", "samples")])
_VALUE = {"dim": "3", "seed": "7", "samples": "5", "i0_multiple": "2",
          "t_min": "2", "t_max": "50", "t_points": "5", "log_grid": "no",
          "tol": "0.1", "u0_family": "gaussian", "u0_amplitude": "2",
          "u0_width": "2", "u1_family": "zero", "u1_amplitude": "2",
          "u1_width": "2"}


@pytest.mark.parametrize("command, key", _UNREAD,
                         ids=[f"{c}-{k}" for c, k in _UNREAD])
def test_unread_option_is_a_usage_error(tmp_path, capsys, command, key):
    if key not in _DATA_KEYS:   # the data keys have no flags
        flag = ("--linear-grid",) if key == "log_grid" else (
            "--" + key.replace("_", "-"), _VALUE[key])
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {_VALUE[key]}\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def _outcome(tmp_path, command, values):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    code, text = run(tmp_path, command, "--config", str(cfg))
    return code, [ln for ln in text.splitlines()
                  if not ln.startswith("# config=")]


# Small runs to vary one option against.
_BASE = {"special": {"t_points": "3"},
         "lemmas": {"samples": "20", "dim": "1"},
         "decay": {"dim": "1", "t_max": "1e3", "t_points": "5"},
         "profile": {"dim": "1", "t_max": "1e3", "t_points": "3"}}
_READ = ([("special", k, v) for k, v in (
             ("t_min", "2"), ("t_max", "500"), ("t_points", "4"),
             ("log_grid", "no"), ("tol", "0"))]
         + [("lemmas", k, v) for k, v in (
             ("dim", "3"), ("seed", "7"), ("samples", "21"))]
         + [(c, k, v) for c in ("decay", "profile") for k, v in (
             ("dim", "3"), ("t_min", "200"), ("t_max", "2e3"),
             ("t_points", "6"), ("log_grid", "no"))]
         + [("decay", "tol", "0"), ("profile", "tol", "1"),
            ("profile", "i0_multiple", "0.01")]
         + [(c, k, _VALUE[k]) for c in ("lemmas", "decay", "profile")
            for k in _DATA_KEYS])


@pytest.mark.parametrize("command, key, value", _READ,
                         ids=[f"{c}-{k}" for c, k, _ in _READ])
def test_read_option_changes_the_outcome(tmp_path, command, key, value):
    # Set in a config file, the one route every key has.  The data keys
    # other than u0_family vary on top of a Gaussian u0, so that no one
    # datum scales the whole (linear) run.
    base = dict(_BASE[command])
    if key in _DATA_KEYS and key != "u0_family":
        base["u0_family"] = "gaussian"
    assert (_outcome(tmp_path, command, {**base, key: value})
            != _outcome(tmp_path, command, base))


def _hash(tmp_path, argv, lines=()):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("".join(f"{ln}\n" for ln in lines))
    _, text = run(tmp_path, *argv, "--config", str(cfg))
    return [ln for ln in text.splitlines() if ln.startswith("# config=")]


def test_config_hash_covers_resolved_values(tmp_path):
    special = ("special", "--t-points", "2")
    same = [_hash(tmp_path, [*special, "--t-max", "1e3"]),
            _hash(tmp_path, [*special, "--t-max", "1000"]),
            _hash(tmp_path, special, ["t_max = 1e3"]),
            _hash(tmp_path, [*special, "--t-max", "1000", "--log-grid"]),
            _hash(tmp_path, special, ["t_max = 1e3", "log_grid = yes"])]
    assert all(h == same[0] for h in same) and len(same[0]) == 1
    assert _hash(tmp_path, [*special, "--t-max", "999"]) != same[0]
    profile = ("profile", "--t-points", "2", "--t-max", "200")
    assert (_hash(tmp_path, [*profile, "--dim", "1,3"])
            == _hash(tmp_path, [*profile, "--dim", "1 3"])
            == _hash(tmp_path, profile, ["dim = 1, 3"]))
    assert (_hash(tmp_path, [*profile, "--dim", "1,3"])
            != _hash(tmp_path, [*profile, "--dim", "3,1"]))
