"""Local optimization problems: rule-based cost tables over sliding windows.

A problem is a tuple (X, Y, r, rules, aggregation, objective, parameters):
at step i the cost of a solution depends on the window of r+1 consecutive
inputs and outputs ending at i. Positions before the first step hold the
placeholder (None in memory, "_|_" in documents) on the input side and the
problem's declared initial outputs on the output side.

All costs are exact: rationals or +/-inf. Rule matching is first-match in
declaration order, so lookups are pure functions of (problem, windows).

Summing costs is the hot path of `evaluate` and of the offline optimum, so
each problem also keeps an integer view of its cost function: every finite
cost times the problem's scale (the lcm of the denominators of its finite
resolved rule costs) is an exact int, and the infinities stay the
`POS_INF` / `NEG_INF` sentinels. Sums of scaled ints divided by the scale
are the exact rational sums; a sentinel added to an int saturates, and
+inf plus -inf raises `InfinityClash`, as `Cost` addition does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product
from math import lcm

from .errors import (
    InfinityClash,
    NoMatchingRule,
    ParseError,
    ValidationError,
)
from .exact import NEG_INF, POS_INF, Cost, cost_sum, parse_rational

BOTTOM = "_|_"  # document spelling of the boundary placeholder
WILDCARD = "*"

AGGREGATIONS = ("sum", "min", "max")
OBJECTIVES = ("min", "max")


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct printable tokens; index positions are stable."""

    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"duplicate tokens in alphabet {self.symbols}")
        if BOTTOM in self.symbols or WILDCARD in self.symbols:
            raise ValidationError("alphabet may not contain '_|_' or '*'")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def index(self, symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} not in alphabet {self.symbols}")

    def __contains__(self, symbol):
        return symbol in self._index

    def join(self, tokens) -> str:
        """Tokens as text: run together when every symbol is one character,
        comma-separated otherwise."""
        return ("" if all(len(s) == 1 for s in self.symbols) else ",").join(tokens)

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class CostExpr:
    """Linear expression in named parameters, or an infinity.

    Documents write e.g. "0", "1/2", "alpha", "1+alpha", "2*alpha", "+inf".
    """

    const: Fraction = Fraction(0)
    terms: tuple = ()  # ((param_name, coefficient), ...)
    infinity: int = 0  # 0 finite, +1/-1 for the infinities

    @staticmethod
    def parse(raw) -> "CostExpr":
        if isinstance(raw, (int, float)):
            return CostExpr(const=parse_rational(raw))
        text = str(raw).strip()
        if text in ("+inf", "inf"):
            return CostExpr(infinity=1)
        if text == "-inf":
            return CostExpr(infinity=-1)
        const = Fraction(0)
        terms = {}
        for part in text.split("+"):
            part = part.strip()
            if not part:
                raise ParseError(f"empty term in cost expression {text!r}")
            try:
                const += parse_rational(part)
                continue
            except ValueError:
                pass
            if "*" in part:
                coeff_text, name = part.split("*", 1)
                coeff = parse_rational(coeff_text)
            else:
                coeff, name = Fraction(1), part
            name = name.strip()
            if not name.isidentifier():
                raise ParseError(f"bad parameter name {name!r} in {text!r}")
            terms[name] = terms.get(name, Fraction(0)) + coeff
        return CostExpr(const=const, terms=tuple(sorted(terms.items())))

    def parameter_names(self):
        return [name for name, _ in self.terms]

    def resolve(self, parameters) -> Cost:
        if self.infinity > 0:
            return POS_INF
        if self.infinity < 0:
            return NEG_INF
        total = self.const
        for name, coeff in self.terms:
            total += coeff * parameters[name]
        return Cost(total)

    def __str__(self):
        if self.infinity:
            return "+inf" if self.infinity > 0 else "-inf"
        parts = [str(self.const)] if self.const or not self.terms else []
        for name, coeff in self.terms:
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        return "+".join(parts)


@dataclass(frozen=True)
class CostRule:
    """One pattern row of the cost table.

    Pattern entries are a concrete token, "*" (matches anything, including
    the placeholder), or "_|_" (matches only the placeholder).
    """

    x_pattern: tuple
    y_pattern: tuple
    cost: CostExpr

    def matches(self, x_window, y_window) -> bool:
        return _pattern_matches(self.x_pattern, x_window) and _pattern_matches(
            self.y_pattern, y_window
        )


def _pattern_matches(pattern, window):
    for entry, sym in zip(pattern, window):
        if entry == WILDCARD:
            continue
        if entry == BOTTOM:
            if sym is not None:
                return False
        elif sym != entry:
            return False
    return True


@dataclass(frozen=True)
class CostBreakdown:
    """Per-step costs u_i plus their aggregate."""

    per_step: tuple
    total: Cost


@dataclass(frozen=True)
class LocalProblem:
    name: str
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    horizon_r: int
    rules: tuple
    aggregation: str
    objective: str
    parameters: dict
    initial_outputs: tuple
    coverage_warnings: tuple = ()

    def __post_init__(self):
        if self.horizon_r < 0:
            raise ValidationError("horizon r must be non-negative")
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError(f"unknown aggregation {self.aggregation!r}")
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}")
        if len(self.initial_outputs) != self.horizon_r:
            raise ValidationError(
                f"initial_outputs must list exactly r={self.horizon_r} tokens"
            )
        for sym in self.initial_outputs:
            self.output_alphabet.index(sym)
        for k, rule in enumerate(self.rules):
            if len(rule.x_pattern) != self.horizon_r + 1:
                raise ValidationError(f"rules[{k}].x: length must be r+1")
            if len(rule.y_pattern) != self.horizon_r + 1:
                raise ValidationError(f"rules[{k}].y: length must be r+1")
        # (x-window, y-window) -> (Cost, the cost times _scale: an int, or
        # the POS_INF / NEG_INF sentinel)
        object.__setattr__(self, "_lookup_memo", {})
        finite = (rule.cost.resolve(self.parameters) for rule in self.rules)
        object.__setattr__(
            self, "_scale", lcm(*(c.value.denominator for c in finite if c.is_finite))
        )
        # horizon -> debruijn.Skeleton; lives and dies with this problem
        object.__setattr__(self, "_skeleton_memo", {})

    # -- core cost access ------------------------------------------------

    def lookup_cost(self, x_window, y_window) -> Cost:
        """Cost of the first rule matching the window pair (first-match order)."""
        key = (tuple(x_window), tuple(y_window))
        entry = self._lookup_memo.get(key)
        if entry is None:
            entry = self._resolve(key)
        return entry[0]

    def _resolve(self, key):
        """Validate a window pair, match it, and memoize its (Cost, scaled)."""
        xw, yw = key
        if len(xw) != self.horizon_r + 1 or len(yw) != self.horizon_r + 1:
            raise ValidationError("window length must be r+1")
        for sym in xw:
            if sym is not None:
                self.input_alphabet.index(sym)
        for sym in yw:
            if sym is not None:
                self.output_alphabet.index(sym)
        for rule in self.rules:
            if rule.matches(xw, yw):
                value = rule.cost.resolve(self.parameters)
                scaled = value
                if value.is_finite:
                    frac = value.value
                    scaled = frac.numerator * (self._scale // frac.denominator)
                entry = self._lookup_memo[key] = (value, scaled)
                return entry
        raise NoMatchingRule(
            f"problem {self.name!r}: no rule matches x={xw} y={yw}"
        )

    def _unscale(self, total) -> Cost:
        """The Cost of a sum of scaled entries (an int or a sentinel)."""
        if isinstance(total, int):
            return Cost(Fraction(total, self._scale))
        return total

    def step_windows(self, x_seq, y_seq, i):
        """Windows for 1-based step i, with boundary conventions applied."""
        r = self.horizon_r
        xw = tuple(x_seq[j - 1] if j >= 1 else None for j in range(i - r, i + 1))
        yw = tuple(
            y_seq[j - 1] if j >= 1 else self.initial_outputs[j - 1 + r]
            for j in range(i - r, i + 1)
        )
        return xw, yw

    def _x_windows(self, x_seq):
        """The input window of every step, in order (placeholders in front)."""
        return _windows((None,) * self.horizon_r + tuple(x_seq), len(x_seq))

    def evaluate(self, x_seq, y_seq) -> CostBreakdown:
        """Per-step costs and their aggregate for a full input/output pair.

        A sum is taken over the scaled ints of the memo's entries.
        """
        n = len(x_seq)
        if n != len(y_seq):
            raise ValidationError("input and output sequences differ in length")
        y_windows = _windows(self.initial_outputs + tuple(y_seq), n)
        memo = self._lookup_memo
        entries = [
            memo.get(key) or self._resolve(key)
            for key in zip(self._x_windows(x_seq), y_windows)
        ]
        per_step = tuple(cost for cost, _ in entries)
        if self.aggregation == "sum":
            total = self._unscale(sum(scaled for _, scaled in entries))
        else:
            total = self._aggregate(per_step)
        return CostBreakdown(per_step, total)

    def _aggregate(self, per_step) -> Cost:
        if self.aggregation == "sum":
            return cost_sum(per_step)
        if not per_step:
            raise ValidationError("min/max aggregation of an empty sequence")
        return min(per_step) if self.aggregation == "min" else max(per_step)

    def better(self, a: Cost, b: Cost) -> bool:
        """True when a strictly improves on b under the problem objective."""
        return a < b if self.objective == "min" else a > b

    def with_parameters(self, overrides) -> "LocalProblem":
        params = dict(self.parameters)
        for name, value in overrides.items():
            if name not in params:
                raise ValidationError(f"unknown parameter {name!r}")
            try:
                params[name] = parse_rational(value)
            except (ValueError, ZeroDivisionError):
                raise ValidationError(
                    f"bad value {value!r} for parameter {name!r}, expected a rational"
                ) from None
        return LocalProblem(
            name=self.name,
            input_alphabet=self.input_alphabet,
            output_alphabet=self.output_alphabet,
            horizon_r=self.horizon_r,
            rules=self.rules,
            aggregation=self.aggregation,
            objective=self.objective,
            parameters=params,
            initial_outputs=self.initial_outputs,
            coverage_warnings=self.coverage_warnings,
        )


# -- offline optimum ------------------------------------------------------


def offline_opt(problem: LocalProblem, x_seq):
    """Exact offline optimum over all output sequences, with one optimizer.

    Sum aggregation uses the additive recursion over states = last r
    outputs, on the problem's integer view: step costs are finite costs
    times the problem's scale, as exact ints, or the +inf / -inf sentinels,
    so every total is exact and only the optimum is turned back into a
    `Cost`. Min/max aggregation augments the state with the running
    aggregate, which stays inside the finite set of realized rule costs.
    """
    if not x_seq:
        raise ValidationError("offline_opt requires a non-empty input")
    if problem.aggregation == "sum":
        return _offline_opt_sum(problem, x_seq)
    return _offline_opt_minmax(problem, x_seq)


def _windows(padded, n):
    """The n windows of r+1 consecutive symbols of padded (r = len - n)."""
    return zip(*(padded[k : k + n] for k in range(len(padded) - n + 1)))


def _step_cost_fn(problem, x_seq):
    xwindows = list(problem._x_windows(x_seq))

    def step_cost(i, state, y):
        # state holds outputs y_{i-r} .. y_{i-1}
        return problem.lookup_cost(xwindows[i - 1], state + (y,))

    return step_cost


def _negated(scaled):
    if isinstance(scaled, int):
        return -scaled
    return NEG_INF if scaled is POS_INF else POS_INF


def _offline_opt_sum(problem, x_seq):
    """Minimizes (for a max objective: the negated) scaled step costs.

    A state, the last r outputs, is coded in base |Y| with its symbols
    ranked in sort order, so ascending codes visit states as sorted() does
    on symbol tuples. Outputs are tried in alphabet order and only a strict
    improvement replaces a state's entry, which fixes the returned outputs.
    A step whose total would be +inf plus -inf is skipped.
    """
    r = problem.horizon_r
    outputs = problem.output_alphabet.symbols
    ny = len(outputs)
    n_states = ny**r
    by_rank = sorted(outputs)
    rank = {y: k for k, y in enumerate(by_rank)}
    states = list(product(by_rank, repeat=r))
    sign = 1 if problem.objective == "min" else -1
    start = 0
    for y in problem.initial_outputs:
        start = start * ny + rank[y]

    ids = {}
    bases = [ids.setdefault(xw, len(ids)) * n_states for xw in problem._x_windows(x_seq)]
    x_wins = list(ids)
    # rows[base + s]: (next state, signed scaled cost, back code s*|Y| + output
    # index) per output, built the first time state s is reached at that
    # window, since a pair that is never reached need not match any rule
    rows = [None] * (len(ids) * n_states)

    def row(index):
        w, s = divmod(index, n_states)
        entries = []
        for k, y in enumerate(outputs):
            key = (x_wins[w], states[s] + (y,))
            scaled = (problem._lookup_memo.get(key) or problem._resolve(key))[1]
            nxt = (s * ny + rank[y]) % n_states
            entries.append((nxt, scaled if sign > 0 else _negated(scaled), s * ny + k))
        rows[index] = entries
        return entries

    prev = [None] * n_states
    prev[start] = 0
    backs = []
    for base in bases:
        cur = [None] * n_states
        back = [None] * n_states
        for s, acc in enumerate(prev):
            if acc is None:
                continue
            for nxt, cost, code in rows[base + s] or row(base + s):
                try:
                    total = acc + cost
                except InfinityClash:
                    continue
                old = cur[nxt]
                if old is None or total < old:
                    cur[nxt] = total
                    back[nxt] = code
        backs.append(back)
        prev = cur

    best_state, best = None, None
    for s, total in enumerate(prev):
        if total is not None and (best is None or total < best):
            best_state, best = s, total
    if best is None:
        raise InfinityClash("every output sequence meets both +inf and -inf")
    ys = []
    state = best_state
    for back in reversed(backs):
        state, k = divmod(back[state], ny)
        ys.append(outputs[k])
    ys.reverse()
    return problem._unscale(best if sign > 0 else _negated(best)), tuple(ys)


def _offline_opt_minmax(problem, x_seq):
    n = len(x_seq)
    outputs = problem.output_alphabet.symbols
    step_cost = _step_cost_fn(problem, x_seq)
    agg = min if problem.aggregation == "min" else max
    start = (tuple(problem.initial_outputs), None)  # (last r outputs, running agg)
    layers = [{start: (None, None)}]
    for i in range(1, n + 1):
        prev = layers[-1]
        cur = {}
        for state in sorted(prev, key=repr):
            window_state, running = state
            for y in outputs:
                u = step_cost(i, window_state, y)
                new_running = u if running is None else agg(running, u)
                nxt_window = (window_state + (y,))[1:] if problem.horizon_r else ()
                nxt = (nxt_window, new_running)
                if nxt not in cur:
                    cur[nxt] = (state, y)
        layers.append(cur)
    final = layers[-1]
    best_state = None
    for state in sorted(final, key=repr):
        if best_state is None or problem.better(state[1], best_state[1]):
            best_state = state
    total = best_state[1]
    ys = []
    state = best_state
    for layer in reversed(layers[1:]):
        prev_state, y = layer[state]
        ys.append(y)
        state = prev_state
    ys.reverse()
    return total, tuple(ys)


def brute_force_opt(problem: LocalProblem, x_seq):
    """Independent oracle: exhaustive search over all |Y|^n output sequences.

    Depth first in `product` order, the first optimum winning. Each prefix
    is totalled once in `Cost` arithmetic over `lookup_cost`, apart from the
    integer view `evaluate` and `offline_opt` share. A sum adds left to
    right, so a prefix meeting +inf and -inf is dropped with its extensions.
    """
    if not x_seq:
        return problem._aggregate(()), ()
    combine = {"sum": Cost.__add__, "min": min, "max": max}[problem.aggregation]
    best = (None, None)

    def extend(ys, total):
        nonlocal best
        if len(ys) == len(x_seq):
            if best[0] is None or problem.better(total, best[0]):
                best = total, ys
            return
        for y in problem.output_alphabet.symbols:
            prefix = ys + (y,)
            u = problem.lookup_cost(*problem.step_windows(x_seq, prefix, len(prefix)))
            try:
                prefix_total = u if total is None else combine(total, u)
            except InfinityClash:
                continue  # every extension of this prefix clashes here too
            extend(prefix, prefix_total)

    extend((), None)
    return best


# -- document loading ------------------------------------------------------

_REQUIRED_FIELDS = (
    "name",
    "inputs",
    "outputs",
    "r",
    "aggregation",
    "objective",
    "rules",
)


def load_problem(document) -> LocalProblem:
    """Parse and validate a problem document (JSON text or a dict)."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    for fieldname in _REQUIRED_FIELDS:
        if fieldname not in doc:
            raise ParseError("missing field", field=fieldname)

    inputs = Alphabet(tuple(str(s) for s in doc["inputs"]))
    outputs = Alphabet(tuple(str(s) for s in doc["outputs"]))
    try:
        r = int(doc["r"])
    except (TypeError, ValueError):
        raise ParseError("must be an integer", field="r")

    parameters = {}
    for name, value in dict(doc.get("parameters", {})).items():
        try:
            parameters[name] = parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {value!r}", field=f"parameters.{name}")

    rules = []
    for k, raw in enumerate(doc["rules"]):
        loc = f"rules[{k}]"
        if not isinstance(raw, dict) or not {"x", "y", "cost"} <= set(raw):
            raise ParseError("rule needs x, y and cost", field=loc)
        x_pattern = tuple(str(t) for t in raw["x"])
        y_pattern = tuple(str(t) for t in raw["y"])
        for token in x_pattern:
            if token not in (WILDCARD, BOTTOM) and token not in inputs:
                raise ParseError(f"unknown input token {token!r}", field=f"{loc}.x")
        for token in y_pattern:
            if token not in (WILDCARD, BOTTOM) and token not in outputs:
                raise ParseError(f"unknown output token {token!r}", field=f"{loc}.y")
        try:
            cost = CostExpr.parse(raw["cost"])
        except ParseError as exc:
            raise ParseError(str(exc), field=f"{loc}.cost")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), field=f"{loc}.cost")
        for name in cost.parameter_names():
            if name not in parameters:
                raise ValidationError(
                    f"{loc}.cost references undeclared parameter {name!r}"
                )
        rules.append(CostRule(x_pattern, y_pattern, cost))

    problem = LocalProblem(
        name=str(doc["name"]),
        input_alphabet=inputs,
        output_alphabet=outputs,
        horizon_r=r,
        rules=tuple(rules),
        aggregation=str(doc["aggregation"]),
        objective=str(doc["objective"]),
        parameters=parameters,
        initial_outputs=tuple(str(t) for t in doc.get("initial_outputs", ())),
    )
    warnings = validate_coverage(problem)
    object.__setattr__(problem, "coverage_warnings", tuple(warnings))
    return problem


def validate_coverage(problem: LocalProblem):
    """Check every window reachable in evaluation against the rules.

    Reachable windows: for steps past the boundary, every combination in
    X^(r+1) x Y^(r+1); for step i <= r the x-window has a placeholder
    prefix and the y-window prefix is pinned to the declared initial
    outputs. Raises ValidationError on the first uncovered window and
    returns warnings for rules that can never fire.
    """
    r = problem.horizon_r
    xs = problem.input_alphabet.symbols
    ys = problem.output_alphabet.symbols
    fired = [False] * len(problem.rules)

    def check(xw, yw):
        for k, rule in enumerate(problem.rules):
            if rule.matches(xw, yw):
                fired[k] = True
                return
        raise ValidationError(
            f"problem {problem.name!r}: no rule covers x={xw} y={yw}"
        )

    for xw in product(xs, repeat=r + 1):
        for yw in product(ys, repeat=r + 1):
            check(xw, yw)
    for i in range(1, r + 1):  # boundary steps
        pad = r + 1 - i
        init = tuple(problem.initial_outputs[i - 1 :])
        for xtail in product(xs, repeat=i):
            xw = (None,) * pad + xtail
            for ytail in product(ys, repeat=i):
                check(xw, init + ytail)
    return [
        f"rule {k} ({','.join(rule.x_pattern)} / {','.join(rule.y_pattern)}) never fires"
        for k, rule in enumerate(problem.rules)
        if not fired[k]
    ]


def bundled_problem(name: str, parameters=None) -> LocalProblem:
    """Load one of the problem documents shipped with the package."""
    try:
        text = resources.files("tlsynth.data").joinpath(f"{name}.json").read_text()
    except FileNotFoundError:
        raise ValidationError(f"no bundled problem named {name!r}")
    problem = load_problem(text)
    if parameters:
        problem = problem.with_parameters(parameters)
    return problem


def bundled_problem_names():
    return sorted(
        p.name[:-5]
        for p in resources.files("tlsynth.data").iterdir()
        if p.name.endswith(".json")
    )
