"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured value when it holds (run with -s to see
them; pytest itself enforces the outcome)."""

import math
import random
import time
from fractions import Fraction

import pytest

from skic import cli_pipeline as CP
from skic import lambda_ir as L
from skic import mdl_opt as MD
from skic import metrics as M
from skic import ski_core as SK
from skic import softgrad as SG
from skic import type_infer as TI
from skic.explainer import explain_term, parse_explanation
from skic.mdl_opt import MdlConfig
from skic.ski_core import RuleSet, Verdict

from conftest import CORPUS_DIR, gen_normalizing_term, gen_ski_term, prng_bytes
from test_mdl_opt import THREE_DEF_FIXTURES, exhaustive_best_objective, plan_objective
from test_type_infer import oracle_posterior


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_c01_corpus_faithful_under_default_config():
    start = time.perf_counter()
    report = CP.run_corpus(CORPUS_DIR)  # default cfg: w=0.99, beam 8, eta enabled
    elapsed = time.perf_counter() - start
    assert not report.errors
    assert len(report.reports) == 20
    assert report.equivalence_pass_rate == 1.0
    assert elapsed < 10.0
    _report("C1 corpus faithfulness", f"20/20 equal in {elapsed:.2f}s")


def test_c02_compression_rate_contract():
    # (a) the published-rate arithmetic is exact
    assert M.compression_rate(217, 1000) == Fraction(783, 1000)
    assert float(M.compression_rate(217, 1000)) == 0.783
    # (b) corpus CR recomputes with zero error from exact counts
    report = CP.run_corpus(CORPUS_DIR)
    for r in report.reports:
        assert r.cr == 1 - Fraction(r.s_tokens, r.p_tokens)
    # (c) eta-optimized CR is never worse than naive CR
    naive_cfg = MdlConfig(rule_sets=(RuleSet.NAIVE,))
    eta_cfg = MdlConfig(rule_sets=(RuleSet.ETA_OPTIMIZED,))
    for path in sorted(CORPUS_DIR.glob("*.lam")):
        src = path.read_text()
        cr_naive = CP.run_pipeline(src, naive_cfg).report.cr
        cr_eta = CP.run_pipeline(src, eta_cfg).report.cr
        assert cr_eta >= cr_naive, path.name
    _report("C2 compression rate", "0.783 exact; zero recompute error; eta >= naive on 20/20")


def _law_arg(rng: random.Random) -> L.Term:
    """Small combinator argument; rejection keeps laws checkable."""
    depth = rng.randint(0, 3)

    def go(d: int) -> L.Term:
        if d <= 0 or rng.random() < 0.5:
            return rng.choice(
                [SK.S, SK.K, SK.I, L.IntLit(rng.randint(-2, 3)), L.Prim("add")]
            )
        return L.App(go(d - 1), go(d - 1))

    return go(depth)


def test_c03_combinator_law_suite():
    rng = random.Random(2024)
    probes = SK.probe_tuples(0, 216)
    fuel = 20000
    checked = 0
    rejected = 0
    while checked < 1000:
        x, y, z = _law_arg(rng), _law_arg(rng), _law_arg(rng)
        s_lhs = L.apply_spine(SK.S, x, y, z)
        s_rhs = L.App(L.App(x, z), L.App(y, z))
        s_res = SK.behavioral_equal(s_lhs, s_rhs, probes, fuel)
        if s_res.verdict is Verdict.UNKNOWN:
            rejected += 1
            assert rejected < 200, "too many divergent triples"
            continue
        assert s_res.verdict is Verdict.EQUAL, (x, y, z)
        k_res = SK.behavioral_equal(L.apply_spine(SK.K, x, y), x, probes, fuel)
        assert k_res.verdict is Verdict.EQUAL, (x, y)
        i_res = SK.behavioral_equal(L.App(SK.I, x), x, probes, fuel)
        assert i_res.verdict is Verdict.EQUAL, x
        checked += 1
    skk = SK.behavioral_equal(L.apply_spine(SK.S, SK.K, SK.K), SK.I, SK.probe_tuples(1, 216), fuel)
    assert skk.verdict is Verdict.EQUAL
    _report("C3 combinator laws", f"1000 triples, 0 failures, {rejected} divergent rejections")


def test_c04_encode_round_trip_500_terms():
    rng = random.Random(4096)
    fuel = 10000
    unknowns: list[tuple[L.Term, RuleSet]] = []
    for _ in range(500):
        t = gen_normalizing_term(rng, max_depth=6)
        probes = SK.probe_tuples(L.leading_lambda_count(t), 216)
        for rules in MD.ALL_RULE_SETS:
            encoded = SK.bracket_abstract(t, rules)
            res = SK.behavioral_equal(encoded, t, probes, fuel)
            if res.verdict is Verdict.UNKNOWN:
                unknowns.append((t, rules))
                continue
            assert res.verdict is Verdict.EQUAL, (L.pretty_print(t), rules)
    assert len(unknowns) <= 0.01 * 1500
    for t, rules in unknowns:  # rerun with 10x fuel to resolution
        res = SK.behavioral_equal(
            SK.bracket_abstract(t, rules), t, SK.probe_tuples(L.leading_lambda_count(t), 216), fuel * 10
        )
        assert res.verdict is Verdict.EQUAL, (L.pretty_print(t), rules)
    _report(
        "C4 encode round trip",
        f"500 terms x 3 rule sets equal; {len(unknowns)} fuel unknowns resolved",
    )


def _random_constraints(rng: random.Random) -> tuple[list[str], tuple[TI.Factor, ...]]:
    if rng.random() < 0.5:
        # extracted from a random term
        t = gen_normalizing_term(rng, max_depth=4)
        variables, cs = TI.build_constraints(t)
        if 1 <= len(variables) <= 6:
            return variables, cs
    # synthetic: random factors over a fresh variable list
    n = rng.randint(1, 6)
    variables = [f"v{i}" for i in range(n)]
    factors = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["numeric", "agree", "bool_cond", "binding"])
        size = 1 if kind == "bool_cond" else rng.randint(1, min(2, n))
        clique = tuple(rng.sample(variables, size))
        fixed = ()
        if kind != "bool_cond" and rng.random() < 0.3:
            fixed = (rng.choice(list(TI.TypeTag)),)
        weight = rng.choice([1.0, 2.0, 4.0])
        factors.append(TI.Factor(kind, clique, weight, fixed))
    return variables, tuple(factors)


def test_c05_posterior_contract():
    rng = random.Random(555)
    oracle_checked = 0
    for _ in range(200):
        variables, cs = _random_constraints(rng)
        post = TI.posterior(cs, variables)
        total = sum(e.probability for e in post.support)
        assert abs(total - 1.0) < 1e-9
        if len(variables) <= 4:
            oracle = oracle_posterior(cs, variables)
            for entry in post.support:
                combo = tuple(entry.assignment[v] for v in variables)
                assert abs(entry.probability - oracle[combo]) < 1e-12
            oracle_checked += 1
    analytic = TI.posterior_from_energies(
        [{"v": TI.TypeTag.INT}, {"v": TI.TypeTag.REAL}], [0.0, math.log(2.0)], ("v",)
    )
    assert abs(analytic.support[0].probability - 2 / 3) < 1e-12
    assert abs(analytic.support[1].probability - 1 / 3) < 1e-12
    _report(
        "C5 posterior inference",
        f"200 sets normalized; {oracle_checked} oracle-matched; analytic softmax exact",
    )


def test_c06_density_bound_diagnostics():
    rnd = M.symbolic_density(prng_bytes(42, 4096))  # default c = 16
    assert rnd.rho >= Fraction(9, 10)
    assert rnd.bound_slack >= 0.0
    assert rnd.k_approx == 4101  # golden, recorded at first run
    rep = M.symbolic_density(b"a" * 4096)
    assert rep.rho <= Fraction(5, 100)
    assert rep.k_approx == 22  # golden
    _report(
        "C6 density diagnostics",
        f"prng rho={float(rnd.rho):.4f} slack={rnd.bound_slack:.0f}; repeated rho={float(rep.rho):.4f}",
    )


def test_c07_gradient_checks():
    from test_softgrad import attention_loss_and_grad, pack

    worst = 0.0
    for seed in range(200, 220):  # 20 seeded fixtures, n <= 6, d <= 4
        n = 1 + seed % 6
        d = 1 + seed % 4
        h, params = SG.fixture_case(seed, n, d)
        f, grad = attention_loss_and_grad(n, d)
        err = SG.finite_diff_check(f, grad, pack(h, params))
        worst = max(worst, err)
        assert err <= 1e-5, (seed, err)
    keep = SG.prng_uniform(31, 16) * 0.5 + 0.5
    cr_err = SG.finite_diff_check(
        lambda x: SG.soft_cr(SG.SoftKeepVector(x)),
        lambda x: SG.soft_cr_grad(SG.SoftKeepVector(x)),
        keep,
    )
    assert cr_err <= 1e-10
    _report("C7 gradient checks", f"20 fixtures, worst {worst:.2e}; soft rate {cr_err:.2e}")


def test_c08_explanation_round_trip():
    count = 0
    report = None
    for path in sorted(CORPUS_DIR.glob("*.lam")):
        result = CP.run_pipeline(path.read_text(), program_id=path.stem)
        for _, body in result.plan.encoded.defs:
            assert parse_explanation(explain_term(body)) == body
            count += 1
        if result.plan.encoded.main is not None:
            assert parse_explanation(explain_term(result.plan.encoded.main)) == result.plan.encoded.main
            count += 1
    rng = random.Random(888)
    for _ in range(200):
        term = gen_ski_term(rng)
        assert parse_explanation(explain_term(term)) == term
        count += 1
    _report("C8 explanation round trip", f"{count} terms, 0 failures")


def test_c09_search_sanity():
    for source in THREE_DEF_FIXTURES:
        prog = L.parse_program(source)
        cfg = MdlConfig(beam_width=8)
        plan = MD.compress_program(prog, cfg)
        assert plan_objective(prog, plan, cfg) == exhaustive_best_objective(prog, cfg)
    for path in sorted(CORPUS_DIR.glob("*.lam")):
        prog = L.parse_program(path.read_text())
        lengths = [
            MD.compress_program(prog, MdlConfig(lambda_weight=w)).token_length
            for w in (0.5, 0.9, 0.99)
        ]
        assert lengths[0] >= lengths[1] >= lengths[2], path.name
    _report("C9 search sanity", "beam==exhaustive on 3-def fixtures; weight sweep monotone")


def test_c10_human_study_figures_not_reproduced():
    # The published interpretability score (4.2), relative inference
    # time (0.9x), and error-localization improvement (58%) need human
    # or hosted-model studies; no desk oracle exists, so this artifact
    # does not assert them.  The mechanical stand-ins are criteria 1
    # (end-to-end faithfulness) and 8 (anchored explanation round
    # trip), which run above.
    _report("C10 human-study figures", "out of scope by design; substitutes are C1 and C8")
