"""The benchmark's own tests: generators, oracles, accounting, trace.

    python3 -m pytest -q bench/tests
"""

import json

import mpmath as mp
import pytest

import gkz
import gkz.cli
import oracles
import run
import tracing
import workloads

# The constant ROADMAP quotes for the Gauss orthant integral at
# beta = (-0.9, -0.35, -0.45), x = (1, 0.8, 1.2, 0.4).  It differs from the
# closed form below in the twelfth digit (5.1e-12 absolute): it is what
# mpmath.quad returns on [0, 1, inf] in the raw variable at 30 digits.
ROADMAP_GAUSS = mp.mpf("5.23025020689088497805")
ROADMAP_AGREES_TO = 11  # significant digits shared with the closed form


def gauss_closed_form(s, p, q, x):
    """Orthant integral of the Gauss chart as Gamma, Beta and 2F1 factors."""
    with mp.workdps(40):
        s, p, q = mp.mpf(s), mp.mpf(p), mp.mpf(q)
        x = [mp.mpf(v) for v in x]
        z = 1 - x[0] * x[3] / (x[1] * x[2])
        return (mp.gamma(p) * mp.gamma(-s - p) / mp.gamma(-s)
                * x[0] ** (s + p + q) * x[1] ** (-p) * x[2] ** (-q)
                * mp.beta(q, -s - q) * mp.hyp2f1(p, q, -s, z))


def chart(name):
    return oracles.chart_data(gkz.catalog(name).standard_form(1))


PARTS = {"search": workloads.Search, "series": workloads.Series}


def make(name, seed=3):
    wl = {**workloads.WORKLOADS, **PARTS}[name](gkz, seed)
    wl.setup()
    wl.prepare()
    return wl


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def test_gauss_oracle_at_roadmap_point():
    x = ("1", "0.8", "1.2", "0.4")
    with mp.workdps(40):
        got = mp.mpf(oracles.chart_integral(
            chart("gauss"), (mp.mpf("-0.9"), mp.mpf("-0.35"), mp.mpf("-0.45")),
            [mp.mpf(v) for v in x], (0, 0, 0, 0), (workloads.RAY, workloads.RAY)).real)
        exact = gauss_closed_form("-1.7", "0.35", "0.45", x)
        # chart_integral returns a Python complex: float64 resolution
        assert abs(got - exact) / exact < 1e-15
        assert abs(ROADMAP_GAUSS - exact) / exact < 10 ** -ROADMAP_AGREES_TO


def test_gauss_oracle_holds_its_stated_digits():
    # the oracle's own precision, before rounding to a Python complex
    with mp.workdps(oracles.ORACLE_DPS):
        pref, q, powers = oracles._integrand_data(
            chart("gauss"), (-0.9, -0.35, -0.45), (0, 0, 0, 0), "log")
        xs = [mp.mpf(1), mp.mpf("0.8"), mp.mpf("1.2"), mp.mpf("0.4")]
        value = pref * oracles._linear_in_w2(
            chart("gauss"), xs, q, powers, (workloads.RAY, workloads.RAY))
        exact = gauss_closed_form(q, powers[0], powers[1], xs)
        assert abs(value - exact) / exact < mp.mpf(10) ** -oracles.ORACLE_DIGITS


def test_fc3_oracle_matches_the_triple_sum():
    a, b, cs, ys = 0.31, 0.74, (1.2, 0.85, 1.4), (0.03, 0.05, 0.04)
    with mp.workdps(30):
        brute = mp.nsum(
            lambda i, j, k: mp.rf(a, i + j + k) * mp.rf(b, i + j + k)
            / (mp.rf(cs[0], i) * mp.rf(cs[1], j) * mp.rf(cs[2], k)
               * mp.factorial(i) * mp.factorial(j) * mp.factorial(k))
            * ys[0] ** i * ys[1] ** j * ys[2] ** k,
            [0, mp.inf], [0, mp.inf], [0, mp.inf])
        got = oracles._fc3(mp.mpf(a), mp.mpf(b), [mp.mpf(c) for c in cs],
                           [mp.mpf(y) for y in ys])
        assert abs(got - brute) / brute < mp.mpf(10) ** -20


def test_quadric_line_oracle_matches_gkz():
    sf = gkz.catalog("quadric").standard_form(1)
    beta, x = (-0.7, -0.2), (2.0, 1.0, 3.0)
    got = gkz.euler_integral(sf, beta, x, (gkz.real_line(),))
    want = oracles.chart_integral(oracles.chart_data(sf), beta, x, (0, 0, 0),
                                  (workloads.LINE,))
    assert got.converged
    assert abs(got.value - want) <= max(1e-10 * abs(want), 1e-14)


def test_digits_are_capped():
    assert oracles.digits(2.0, 2.0) == oracles.DIGITS_CAP
    assert oracles.digits(1.0 + 1e-9, 1.0) == pytest.approx(9.0, abs=1e-6)
    assert workloads.exact_check(False).digits == 0.0


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["orthant", "contour", "search", "series"])
def test_generator_is_determined_by_the_seed(name):
    def inputs(seed):
        wl = make(name, seed)
        return [json.dumps(op.inputs, default=repr, sort_keys=True)
                for _ in range(2) for op in wl.next_pass()]

    first = inputs(11)
    assert first == inputs(11)
    assert first != inputs(12)


def test_orthant_inputs_converge():
    wl = make("orthant")
    for _ in range(20):
        for op in wl.next_pass():
            name = op.label.split()[-1]
            sf = wl.sf[name]
            s, b1, b2 = sf.transform_parameters(op.inputs["beta"])
            assert b1 < 0 and b2 < 0 and s < -max(-b1, -b2)
            assert all(v > 0 for v in op.inputs["x"])


def test_square_binomial_zero_stays_inside():
    wl = make("contour")
    for _ in range(10):
        for op in wl.next_pass():
            if op.label != "binomial square":
                continue
            x = op.inputs["x"]
            for w1 in (0.0, 0.1, 1.0, 10.0, 1e6):
                zero = -(x[0] + x[1] * w1) / (x[2] + x[3] * w1)
                assert abs(zero) + op.inputs["t"] < 1.0


# --------------------------------------------------------------------------
# search oracles on re-embedded configurations
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gauss", "square", "quadric", "pfq(2)", "appell_f4"])
def test_group_order_survives_re_embedding(name):
    import numpy as np

    rng = np.random.default_rng(5)
    base = gkz.catalog(name).config.matrix
    for _ in range(3):
        matrix = workloads.re_embed(rng, base)
        config = gkz.validate_configuration(matrix, name=name)
        group = gkz.find_symmetries(config)
        assert group.order == workloads.SEARCH_ORDERS[name]
        assert all(gkz.verify_symmetry(config, e.t_matrix, e.perm) for e in group)


def test_search_checks_reject_a_wrong_group():
    wl = make("search")
    op = next(op for op in wl.next_pass() if op.label == "search square")
    doc = json.loads(gkz.cli.canonical_json(op.run()))
    assert not any(c.missed for c in op.checks(doc))
    doc["group"]["elements"][1]["perm"] = doc["group"]["elements"][0]["perm"]
    assert any(c.missed for c in op.checks(doc))


# --------------------------------------------------------------------------
# failure accounting
# --------------------------------------------------------------------------


def test_out_of_domain_counts_as_failed():
    wl = make("series")
    ops = [op for op in wl.next_pass() if op.label == "series gauss"]
    results = run.run_ops(ops, gkz.cli, gkz.GkzError)
    raised = [r for r in results if r[2] is not None]
    assert raised and all(r[2].startswith("OutOfDomain") for r in raised)
    failed, _, _, misses = run.check_reports(results)
    assert not misses
    assert failed == len(raised)
    metrics, tail = run.end_to_end(results, failed, [16.0], 1.0, 80.0)
    assert tail["reports"] == len(results) - len(raised)
    assert metrics["reports_per_s"][0] == tail["reports"] / sum(r[3] for r in results)


def test_oracle_miss_counts_as_failed():
    wl = make("contour")
    op = next(op for op in wl.next_pass() if op.label.endswith("rotated ray"))
    text = gkz.cli.canonical_json(op.run())
    doc = json.loads(text)
    doc["value"][0] *= 1 + 1e-8  # outside the 1e-10 band it claims
    bad = workloads.Op(op.label, op.inputs, op.run, lambda _: op.checks(doc))
    failed, kept, every, misses = run.check_reports([(bad, text, None, 0.1)])
    assert failed == 1 and len(misses) == 1
    assert kept == [] and len(every) == 1


# --------------------------------------------------------------------------
# trace and the whole run
# --------------------------------------------------------------------------


def test_tracer_restores_every_name():
    before = {(mod.__name__, k): v for mod in tracing._gkz_modules()
              for k, v in vars(mod).items()}
    from_elements = gkz.SymmetryGroup.__dict__["from_elements"]
    with tracing.Tracer() as tracer:
        assert gkz.lattice.det is not before["gkz.lattice", "det"]
        assert gkz.verify.derivative_integral is not before["gkz.verify", "derivative_integral"]
        gkz.find_symmetries(gkz.catalog("square").config)
    after = {(mod.__name__, k): v for mod in tracing._gkz_modules()
             for k, v in vars(mod).items()}
    assert all(after[key] is value for key, value in before.items())
    assert gkz.SymmetryGroup.__dict__["from_elements"] is from_elements
    calls, own, _ = tracer.self_times()
    assert calls["symmetry.find_symmetries"] == 1
    assert calls["lattice.solve_unique"] > 0
    assert all(v >= -1e-9 for v in own.values())


class TinySearch(workloads.Search):
    def next_pass(self):
        return [self._op(name) for name in ("gauss", "quadric")]


class TinySeries(workloads.Series):
    entries = ("gauss", "square")


class TinyGroups(workloads.Groups):
    def __init__(self, api, seed):
        super().__init__(api, seed)
        self.parts = (TinySearch(api, seed), TinySeries(api, seed))


class TinyContour(workloads.Contour):
    def next_pass(self):
        return [self._quadric_pde(), self._quadric_binomial(),
                self._quadric_ray(negative=True), self._quadric_ray(negative=False)]


class TinyOrthant(workloads.Orthant):
    def next_pass(self):
        return [self._pde("gauss")]


@pytest.mark.parametrize("tiny", [TinyGroups, TinyContour, TinyOrthant])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(tiny, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, tiny.name, tiny)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code = run.main(["--workload", tiny.name, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
