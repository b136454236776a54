import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsynth.errors import InfinityClash, NoMatchingRule, ParseError, ValidationError
from tlsynth.exact import NEG_INF, POS_INF, Cost, cost_sum
from tlsynth.generators import GeneratorSpec
from tlsynth.problems import (
    CostExpr,
    bundled_problem,
    bundled_problem_names,
    brute_force_opt,
    load_problem,
    offline_opt,
)


@pytest.fixture(scope="module")
def migration():
    return bundled_problem("file-migration")


@pytest.fixture(scope="module")
def migration_half():
    return bundled_problem("file-migration", {"alpha": "1/2"})


# -- lookup_cost -----------------------------------------------------------


def test_lookup_matches_printed_table(migration):
    # the eight concrete window classes, in declaration order
    a = Fraction(1)
    expected = [
        (("1", "0"), ("0", "0"), Cost(0)),
        (("1", "0"), ("1", "1"), Cost(1)),
        (("1", "0"), ("1", "0"), Cost(a)),
        (("1", "0"), ("0", "1"), Cost(1 + a)),
        (("0", "1"), ("1", "1"), Cost(0)),
        (("0", "1"), ("0", "0"), Cost(1)),
        (("0", "1"), ("0", "1"), Cost(a)),
        (("0", "1"), ("1", "0"), Cost(1 + a)),
    ]
    for xw, yw, cost in expected:
        assert migration.lookup_cost(xw, yw) == cost


def test_lookup_spec_examples(migration):
    assert migration.lookup_cost(("1", "0"), ("0", "0")) == Cost(0)
    assert migration.lookup_cost(("1", "0"), ("1", "0")) == Cost(1)
    alpha2 = bundled_problem("file-migration", {"alpha": "2"})
    assert alpha2.lookup_cost(("0", "1"), ("1", "0")) == Cost(3)


def test_lookup_wildcard_matches_placeholder(migration):
    assert migration.lookup_cost((None, "1"), ("0", "1")) == Cost(1)  # alpha=1


def test_lookup_is_deterministic_across_loads():
    p1 = bundled_problem("file-migration")
    p2 = bundled_problem("file-migration")
    rng = random.Random(0)
    for _ in range(50):
        xw = tuple(rng.choice(["0", "1"]) for _ in range(2))
        yw = tuple(rng.choice(["0", "1"]) for _ in range(2))
        assert p1.lookup_cost(xw, yw) == p2.lookup_cost(xw, yw)


def test_no_matching_rule():
    doc = json.loads(
        '{"name": "partial", "inputs": ["0"], "outputs": ["0"], "r": 0,'
        ' "aggregation": "sum", "objective": "min", "initial_outputs": [],'
        ' "rules": [{"x": ["0"], "y": ["0"], "cost": "0"}]}'
    )
    problem = load_problem(doc)
    with pytest.raises(NoMatchingRule):
        problem.lookup_cost((None,), ("0",))


# -- evaluate ---------------------------------------------------------------


def test_evaluate_all_local(migration):
    out = migration.evaluate(("0", "0", "0"), ("0", "0", "0"))
    assert out.total == Cost(0)
    assert out.per_step == (Cost(0), Cost(0), Cost(0))


def test_evaluate_migrate_once(migration):
    # step 1 pays the migration from the initial node, step 2 is local
    out = migration.evaluate(("1", "1"), ("1", "1"))
    assert out.per_step == (Cost(1), Cost(0))
    assert out.total == Cost(1)


def test_evaluate_ind_set_infeasible():
    problem = bundled_problem("max-ind-set")
    out = problem.evaluate(("5", "7"), ("1", "1"))
    assert out.total == NEG_INF


def test_evaluate_length_mismatch(migration):
    with pytest.raises(ValidationError):
        migration.evaluate(("0",), ("0", "0"))


# -- offline_opt -------------------------------------------------------------


def test_opt_trivial_all_zero(migration):
    total, ys = offline_opt(migration, ("0", "0", "0", "0"))
    assert total == Cost(0)
    assert ys == ("0", "0", "0", "0")


def test_opt_migrate_immediately(migration):
    # brute force over all 16 output sequences gives 1
    total, ys = offline_opt(migration, ("1", "1", "1", "1"))
    assert total == Cost(1)
    assert migration.evaluate(("1", "1", "1", "1"), ys).total == Cost(1)


def test_opt_stay_home_on_alternation(migration):
    total, ys = offline_opt(migration, ("1", "0", "1", "0"))
    assert total == Cost(2)
    assert migration.evaluate(("1", "0", "1", "0"), ys).total == Cost(2)


@pytest.mark.parametrize(
    "name,params",
    [
        pytest.param("file-migration", None, id="file-migration"),
        pytest.param("load-balancing", None, id="load-balancing"),
        pytest.param("max-ind-set", None, id="max-ind-set"),
        pytest.param("min-dom-set", None, id="min-dom-set"),
        # scales 3, 10 and 2: the integer view divides by them on return
        pytest.param("file-migration", {"alpha": "1/3"}, id="file-migration-alpha=1/3"),
        pytest.param("file-migration", {"alpha": "7/10"}, id="file-migration-alpha=7/10"),
        pytest.param("file-migration", {"alpha": "5/2"}, id="file-migration-alpha=5/2"),
    ],
)
def test_opt_equals_brute_force_on_random_inputs(name, params):
    problem = bundled_problem(name, params)
    rng = random.Random(7)
    symbols = problem.input_alphabet.symbols
    for _ in range(25):
        n = rng.randint(1, 7)
        xs = tuple(rng.choice(symbols) for _ in range(n))
        dp_total, dp_ys = offline_opt(problem, xs)
        bf_total, _ = brute_force_opt(problem, xs)
        assert dp_total == bf_total, (name, xs)
        assert problem.evaluate(xs, dp_ys).total == dp_total


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["0", "1"]), min_size=1, max_size=10))
def test_opt_brute_force_equivalence_hypothesis(xs):
    problem = bundled_problem("file-migration")
    dp_total, _ = offline_opt(problem, tuple(xs))
    bf_total, _ = brute_force_opt(problem, tuple(xs))
    assert dp_total == bf_total


# (problem, alpha, input) -> (total, outputs), recorded with the Cost-based
# dynamic program the integer one replaced; ties must break the same way
OPT_GOLDEN = [
    ("file-migration", "1", "0110100111", "4", "0000000111"),
    ("file-migration", "1", "1111000011110000", "4", "1111000011110000"),
    ("file-migration", "1", "1010101010", "5", "0000000000"),
    ("file-migration", "5/2", "0110100111", "11/2", "0000000111"),
    ("file-migration", "5/2", "1111000011110000", "8", "0000000000000000"),
    ("file-migration", "5/2", "1101101101", "11/2", "1111111111"),
    ("file-migration", "1/3", "0110100111", "5/3", "0110100111"),
    ("file-migration", "1/3", "1001", "1", "1001"),
    ("file-migration", "1/3", "1111000011110000", "4/3", "1111000011110000"),
    ("load-balancing", None, "1212211221", "1", "1211211121"),
    ("load-balancing", None, "2222", "1", "2121"),
    ("load-balancing", None, "2121211", "1", "2121211"),
    ("load-balancing", None, "1221212211122121", "1", "1121211211112121"),
    ("load-balancing", None, "2112211221122112211", "1", "2111211121112111211"),
    ("load-balancing", None, "22212221222122212221", "1", "21212121212121212121"),
    ("max-ind-set", None, "5775757", "26", "1010101"),
    ("max-ind-set", None, "7777", "14", "1010"),
    ("max-ind-set", None, "5577557755", "29", "1010101010"),
    ("min-dom-set", None, "1212211221", "4", "1001001001"),
    ("min-dom-set", None, "2222", "2", "0100"),
    ("min-dom-set", None, "1112221", "3", "0100100"),
]


@pytest.mark.parametrize("name,alpha,xs,total,ys", OPT_GOLDEN)
def test_opt_outputs_are_pinned(name, alpha, xs, total, ys):
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    got_total, got_ys = offline_opt(problem, tuple(xs))
    assert (str(got_total), "".join(got_ys)) == (total, ys)


@pytest.mark.parametrize("aggregation", ["min", "max"])
@pytest.mark.parametrize("objective", ["min", "max"])
@pytest.mark.parametrize(
    "name", ["file-migration", "load-balancing", "max-ind-set", "min-dom-set", "clash"]
)
def test_min_max_opt_equals_brute_force(name, aggregation, objective):
    # every input up to length 6, under each bottleneck pair a problem can declare
    base = load_problem(CLASH_DOC) if name == "clash" else bundled_problem(name)
    problem = dataclasses.replace(base, aggregation=aggregation, objective=objective)
    for n in range(1, 7):
        for xs in itertools.product(problem.input_alphabet.symbols, repeat=n):
            dp_total, dp_ys = offline_opt(problem, xs)
            assert dp_total == brute_force_opt(problem, xs)[0], xs
            assert problem.evaluate(xs, dp_ys).total == dp_total, xs


@pytest.mark.parametrize("name", ["file-migration", "load-balancing", "max-ind-set", "min-dom-set"])
def test_evaluate_total_is_the_exact_aggregate(name):
    aggregate = {"sum": cost_sum, "min": min, "max": max}
    rng = random.Random(11)
    for params in (None, {"alpha": "7/10"}) if name == "file-migration" else (None,):
        problem = bundled_problem(name, params)
        xsyms = problem.input_alphabet.symbols
        ysyms = problem.output_alphabet.symbols
        for _ in range(40):
            n = rng.randint(1, 30)
            xs = tuple(rng.choice(xsyms) for _ in range(n))
            ys = tuple(rng.choice(ysyms) for _ in range(n))
            per_step = tuple(
                problem.lookup_cost(*problem.step_windows(xs, ys, i)) for i in range(1, n + 1)
            )
            out = problem.evaluate(xs, ys)
            assert out.per_step == per_step
            assert out.total == aggregate[problem.aggregation](per_step)


@pytest.mark.parametrize(
    "name,aggregation",
    [("load-balancing", "max"), ("load-balancing", "min"), ("min-dom-set", "max")],
)
def test_min_max_evaluate_equals_the_cost_aggregate(name, aggregation):
    # every input and output pair up to length 6; min-dom-set pays +inf
    problem = dataclasses.replace(bundled_problem(name), aggregation=aggregation)
    xsyms = problem.input_alphabet.symbols
    ysyms = problem.output_alphabet.symbols
    for n in range(1, 7):
        for xs in itertools.product(xsyms, repeat=n):
            for ys in itertools.product(ysyms, repeat=n):
                out = problem.evaluate(xs, ys)
                assert out.total == problem._aggregate(out.per_step), (xs, ys)


# x-windows ("a","a") with outputs ("1","1") cost -inf, input "b" with
# outputs ("0","0") costs +inf and input "c" always does; outputs are
# declared out of sort order
CLASH_DOC = {
    "name": "clash",
    "inputs": ["a", "b", "c"],
    "outputs": ["1", "0"],
    "r": 1,
    "aggregation": "sum",
    "objective": "min",
    "initial_outputs": ["0"],
    "rules": [
        {"x": ["a", "a"], "y": ["1", "1"], "cost": "-inf"},
        {"x": ["*", "b"], "y": ["0", "0"], "cost": "+inf"},
        {"x": ["*", "c"], "y": ["*", "*"], "cost": "+inf"},
        {"x": ["*", "*"], "y": ["0", "1"], "cost": "2/3"},
        {"x": ["*", "*"], "y": ["1", "0"], "cost": "3/4"},
        {"x": ["*", "a"], "y": ["*", "*"], "cost": "1/2"},
        {"x": ["*", "b"], "y": ["*", "*"], "cost": "1/5"},
    ],
}


# input -> (total, outputs) per objective, recorded like OPT_GOLDEN
CLASH_GOLDEN = {
    "min": {"abab": ("47/30", "1111"), "aabba": ("-inf", "11100"), "babba": ("31/15", "11111")},
    "max": {"abab": ("+inf", "0000"), "aabba": ("+inf", "10000"), "babba": ("+inf", "00000")},
}


@pytest.mark.parametrize("objective", ["min", "max"])
def test_infinities_of_both_signs(objective):
    problem = load_problem(dict(CLASH_DOC, objective=objective))
    for xs, expected in CLASH_GOLDEN[objective].items():
        total, ys = offline_opt(problem, tuple(xs))
        assert (str(total), "".join(ys)) == expected, xs
    with pytest.raises(InfinityClash):
        problem.evaluate(("a", "a", "b", "b"), ("1", "1", "0", "0"))
    assert problem.evaluate(("a", "a", "b"), ("1", "1", "0")).total == NEG_INF
    assert problem.evaluate(("b", "b"), ("1", "0")).total == Cost(Fraction(17, 12))
    totals = set()
    for n in range(1, 7):
        for xs in itertools.product("ab", repeat=n):
            dp_total, dp_ys = offline_opt(problem, xs)
            assert dp_total == brute_force_opt(problem, xs)[0], xs
            assert problem.evaluate(xs, dp_ys).total == dp_total
            totals.add(dp_total.is_finite)
    assert totals == {True, False}
    if objective == "min":
        # the -inf path into state 1 clashes with the +inf of "c" and is
        # skipped; the finite path through state 0 pays +inf
        assert offline_opt(problem, tuple("aac"))[0] == POS_INF
        assert brute_force_opt(problem, tuple("aac"))[0] == POS_INF


def test_opt_when_minus_inf_fills_every_state():
    # -inf reaches both states before "c"; the finite totals it would have
    # displaced are the only ones that survive the +inf of "c"
    problem = load_problem(CLASH_DOC)
    assert brute_force_opt(problem, tuple("aaac"))[0] == POS_INF
    assert offline_opt(problem, tuple("aaac"))[0] == POS_INF


def random_clash_doc(rng, r, objective):
    """A problem whose every full window pair of inputs a and b costs -inf,
    +inf or a small rational, drawn from rng; windows that reach before the
    first step fall to a catch-all rule, and a window ending in input c
    costs +inf, so only the paths that avoided -inf survive it."""
    costs = ["-inf", "+inf", "0", "1/2", "1", "3/2", "2/3"]
    rules = [{"x": ["*"] * r + ["c"], "y": ["*"] * (r + 1), "cost": "+inf"}]
    rules += [
        {"x": list(xw), "y": list(yw), "cost": rng.choice(costs)}
        for xw in itertools.product("ab", repeat=r + 1)
        for yw in itertools.product("01", repeat=r + 1)
    ]
    rules.append({"x": ["*"] * (r + 1), "y": ["*"] * (r + 1), "cost": rng.choice(costs)})
    return {
        "name": "random-clash",
        "inputs": ["a", "b", "c"],
        "outputs": ["0", "1"],
        "r": r,
        "aggregation": "sum",
        "objective": objective,
        "initial_outputs": ["0"] * r,
        "rules": rules,
    }


@pytest.mark.parametrize("objective", ["min", "max"])
def test_sum_opt_under_both_infinities_equals_brute_force(objective):
    # seeded random tables with infinities of both signs, every input up to
    # length 5: a clash on every path raises in both, or neither does
    rng = random.Random(6)
    for r in (1, 1, 1, 2, 2):
        problem = load_problem(random_clash_doc(rng, r, objective))
        for n in range(1, 6):
            for xs in itertools.product("abc", repeat=n):
                expected = brute_force_opt(problem, xs)[0]
                if expected is None:
                    with pytest.raises(InfinityClash):
                        offline_opt(problem, xs)
                    continue
                dp_total, dp_ys = offline_opt(problem, xs)
                assert dp_total == expected, (r, xs)
                assert problem.evaluate(xs, dp_ys).total == dp_total, (r, xs)


def oracle_problems():
    """Every bundled problem, the clash document under both objectives and
    the seeded two-infinity documents of the test above."""
    problems = [bundled_problem(name) for name in bundled_problem_names()]
    for objective in ("min", "max"):
        problems.append(load_problem(dict(CLASH_DOC, objective=objective)))
        rng = random.Random(6)
        problems += [load_problem(random_clash_doc(rng, r, objective)) for r in (1, 1, 1, 2, 2)]
    return problems


def assert_opt_is_the_oracle_optimum(problem, xs):
    expected = brute_force_opt(problem, xs)[0]
    if expected is None:
        with pytest.raises(InfinityClash):
            offline_opt(problem, xs)
        return
    total, ys = offline_opt(problem, xs)
    assert total == expected, (problem.name, xs)
    # ties may pick another optimal sequence than the depth-first oracle
    assert problem.evaluate(xs, ys).total == total, (problem.name, xs)


def test_opt_equals_brute_force_on_longer_inputs():
    # at lengths 10 to 12 the steps revisit (input window, shifted totals)
    # pairs, so most of them are answered by the optimizer's memo
    rng = random.Random(12)
    for problem in oracle_problems():
        symbols = problem.input_alphabet.symbols
        for _ in range(4):
            xs = tuple(rng.choice(symbols) for _ in range(rng.randint(10, 12)))
            assert_opt_is_the_oracle_optimum(problem, xs)


# staying on "b" costs 1 more than staying on "a" at every step, and a
# switch costs +inf (-inf when maximizing), so the gap between the two
# totals grows by one a step and no vector of shifted totals is met twice
DRIFT_DOC = {
    "name": "drift",
    "inputs": ["0", "1"],
    "outputs": ["a", "b"],
    "r": 1,
    "aggregation": "sum",
    "objective": "min",
    "initial_outputs": ["a"],
    "rules": [
        {"x": ["_|_", "*"], "y": ["*", "a"], "cost": "0"},
        {"x": ["_|_", "*"], "y": ["*", "b"], "cost": "1"},
        {"x": ["*", "0"], "y": ["a", "a"], "cost": "0"},
        {"x": ["*", "1"], "y": ["a", "a"], "cost": "1/2"},
        {"x": ["*", "0"], "y": ["b", "b"], "cost": "1"},
        {"x": ["*", "1"], "y": ["b", "b"], "cost": "3/2"},
        {"x": ["*", "*"], "y": ["*", "*"], "cost": "+inf"},
    ],
}


@pytest.mark.parametrize("objective", ["min", "max"])
def test_opt_equals_brute_force_when_totals_drift_apart(objective):
    switch = {"x": ["*", "*"], "y": ["*", "*"], "cost": "+inf" if objective == "min" else "-inf"}
    rules = DRIFT_DOC["rules"][:-1] + [switch]
    problem = load_problem(dict(DRIFT_DOC, objective=objective, rules=rules))
    rng = random.Random(4)
    for n in (1, 2, 5, 10, 11, 12):
        xs = tuple(rng.choice("01") for _ in range(n))
        assert_opt_is_the_oracle_optimum(problem, xs)
        assert offline_opt(problem, xs)[1] == ("a" if objective == "min" else "b",) * n


@pytest.mark.parametrize("alpha", ["1", "5"])
def test_opt_outputs_evaluate_to_the_optimum_on_long_inputs(alpha):
    problem = bundled_problem("file-migration", {"alpha": alpha})
    xs = GeneratorSpec.parse("uniform:n=2000,p=1/2").realize(trial_seed=9)
    total, ys = offline_opt(problem, xs)
    assert len(ys) == 2000
    assert problem.evaluate(xs, ys).total == total


def product_scan_opt(problem, x_seq):
    """The exhaustive optimum as one product loop over whole sequences, each
    totalled from scratch: the reference for the depth-first oracle."""
    best, best_y = None, None
    steps = range(1, len(x_seq) + 1)
    for ys in itertools.product(problem.output_alphabet.symbols, repeat=len(x_seq)):
        per_step = [problem.lookup_cost(*problem.step_windows(x_seq, ys, i)) for i in steps]
        try:
            total = problem._aggregate(per_step)
        except InfinityClash:
            continue
        if best is None or problem.better(total, best):
            best, best_y = total, ys
    return best, best_y


@pytest.mark.parametrize(
    "doc",
    ["file-migration", "load-balancing", "max-ind-set", "min-dom-set", "clash-min", "clash-max"],
)
def test_brute_force_opt_matches_the_product_scan(doc):
    # totals and outputs: the first optimal sequence in product order wins
    if doc.startswith("clash-"):
        problem = load_problem(dict(CLASH_DOC, objective=doc[len("clash-") :]))
    else:
        problem = bundled_problem(doc)
    symbols = problem.input_alphabet.symbols
    for n in range(1, 6):
        for xs in itertools.product(symbols, repeat=n):
            assert brute_force_opt(problem, xs) == product_scan_opt(problem, xs), xs


def test_sum_monotone_under_extension(migration):
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        xs = [rng.choice(["0", "1"]) for _ in range(n)]
        ys = [rng.choice(["0", "1"]) for _ in range(n)]
        before = migration.evaluate(xs, ys).total
        xs.append(rng.choice(["0", "1"]))
        ys.append(rng.choice(["0", "1"]))
        assert migration.evaluate(xs, ys).total >= before


# -- documents ---------------------------------------------------------------


def test_bundled_min_dom_set_has_infinite_rule():
    problem = bundled_problem("min-dom-set")
    assert problem.horizon_r == 2
    assert any(rule.cost.infinity > 0 for rule in problem.rules)
    # an undominated node really costs +inf
    assert problem.lookup_cost(("1", "1", "1"), ("0", "0", "0")) == POS_INF


def test_load_rejects_uncovered_window():
    doc = {
        "name": "gap",
        "inputs": ["0", "1"],
        "outputs": ["0", "1"],
        "r": 1,
        "aggregation": "sum",
        "objective": "min",
        "initial_outputs": ["0"],
        "rules": [
            {"x": ["*", "*"], "y": ["0", "0"], "cost": "0"},
            {"x": ["*", "*"], "y": ["0", "1"], "cost": "1"},
            {"x": ["*", "*"], "y": ["1", "0"], "cost": "1"},
            # y=(1,1) uncovered
        ],
    }
    with pytest.raises(ValidationError) as err:
        load_problem(doc)
    assert "('1', '1')" in str(err.value)


def test_load_reports_unreachable_rules():
    doc = {
        "name": "shadowed",
        "inputs": ["0"],
        "outputs": ["0"],
        "r": 0,
        "aggregation": "sum",
        "objective": "min",
        "initial_outputs": [],
        "rules": [
            {"x": ["*"], "y": ["*"], "cost": "0"},
            {"x": ["0"], "y": ["0"], "cost": "1"},
        ],
    }
    problem = load_problem(doc)
    assert len(problem.coverage_warnings) == 1
    assert "rule 1" in problem.coverage_warnings[0]


def test_with_parameters_keeps_warnings_and_resolves_afresh():
    doc = {
        "name": "shadowed-parameter",
        "inputs": ["0"],
        "outputs": ["0"],
        "r": 0,
        "aggregation": "sum",
        "objective": "min",
        "parameters": {"beta": "1"},
        "initial_outputs": [],
        "rules": [
            {"x": ["*"], "y": ["*"], "cost": "beta"},
            {"x": ["0"], "y": ["0"], "cost": "1"},
        ],
    }
    problem = load_problem(doc)
    assert problem.lookup_cost(("0",), ("0",)) == Cost(1)
    third = problem.with_parameters({"beta": "1/3"})
    assert third.coverage_warnings == problem.coverage_warnings
    assert len(third.coverage_warnings) == 1 and "rule 1" in third.coverage_warnings[0]
    assert third.lookup_cost(("0",), ("0",)) == Cost(Fraction(1, 3))
    assert third.lookup_scaled(("0",), ("0",)) == 1  # scale 3
    assert problem.lookup_cost(("0",), ("0",)) == Cost(1)


def test_cost_expr_parses_coefficients_and_json_numbers():
    """A term may carry a rational coefficient, and a JSON number is a
    constant, read as its decimal literal."""
    assert CostExpr.parse("2*alpha") == CostExpr(terms=(("alpha", Fraction(2)),))
    twice = CostExpr.parse(" 1/2*alpha + 1 + alpha ")
    assert twice.terms == (("alpha", Fraction(3, 2)),)
    assert twice.resolve({"alpha": Fraction(3)}) == Cost(Fraction(11, 2))
    assert CostExpr.parse(3) == CostExpr(const=Fraction(3))
    assert CostExpr.parse(0.1) == CostExpr(const=Fraction(1, 10))


def test_parse_errors_carry_field():
    with pytest.raises(ParseError) as err:
        load_problem({"name": "x"})
    assert "inputs" in str(err.value)
    with pytest.raises(ParseError) as err:
        load_problem(
            {
                "name": "x",
                "inputs": ["0"],
                "outputs": ["0"],
                "r": 0,
                "aggregation": "sum",
                "objective": "min",
                "initial_outputs": [],
                "rules": [{"x": ["0"], "y": ["0"], "cost": "1//"}],
            }
        )
    assert "rules[0].cost" in str(err.value)


def test_undeclared_parameter_rejected():
    with pytest.raises(ValidationError):
        load_problem(
            {
                "name": "x",
                "inputs": ["0"],
                "outputs": ["0"],
                "r": 0,
                "aggregation": "sum",
                "objective": "min",
                "initial_outputs": [],
                "rules": [{"x": ["*"], "y": ["*"], "cost": "beta"}],
            }
        )


def test_parameter_override_keeps_document(migration, migration_half):
    assert migration.parameters["alpha"] == 1
    assert migration_half.parameters["alpha"] == Fraction(1, 2)
    assert migration_half.lookup_cost(("1", "0"), ("1", "0")) == Cost(Fraction(1, 2))


def test_load_balancing_document_matches_paper_cases():
    problem = bundled_problem("load-balancing")
    # one short job: max load 1 regardless of assignment
    assert problem.lookup_cost(("1", "1"), ("1", "1")) == Cost(1)
    # a 2-day job stacked on the same machine: load 2
    assert problem.lookup_cost(("2", "1"), ("2", "2")) == Cost(2)
    assert problem.lookup_cost(("2", "1"), ("1", "2")) == Cost(1)
