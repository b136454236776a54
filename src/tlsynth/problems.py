"""Local optimization problems: rule-based cost tables over sliding windows.

A problem is a tuple (X, Y, r, rules, aggregation, objective, parameters):
at step i the cost of a solution depends on the window of r+1 consecutive
inputs and outputs ending at i. Positions before the first step hold the
placeholder (None in memory, "_|_" in documents) on the input side and the
problem's declared initial outputs on the output side.

All costs are exact: rationals or +/-inf. Rule matching is first-match in
declaration order, so lookups are pure functions of (problem, windows).

Each problem scales every cost once: it resolves its rules when it is
built and puts their finite costs over one denominator, its scale
(`exact.over_common_denominator`). Its memo keeps, beside each matched
`Cost`, the cost times that scale as an exact int, with the infinities
kept as the `POS_INF` / `NEG_INF` sentinels; `lookup_scaled` reads that view.
The exact consumers work on these ints alone: the sum in `evaluate`, the
offline optimum under every aggregation, and the `debruijn` skeleton.
Sums, maxima and minima of scaled ints, divided by the scale, are the
exact rational results. A sentinel compares below or above every int and
saturates when added to one, and +inf plus -inf raises `InfinityClash`, as
`Cost` arithmetic does. The brute-force oracle stays in `Cost` arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import product

from .errors import (
    InfinityClash,
    NoMatchingRule,
    ParseError,
    ValidationError,
)
from .exact import NEG_INF, POS_INF, Cost, cost_sum, over_common_denominator, parse_rational

BOTTOM = "_|_"  # document spelling of the boundary placeholder
WILDCARD = "*"

AGGREGATIONS = ("sum", "min", "max")
OBJECTIVES = ("min", "max")
OPT_NODE_CAP = 2**16  # offline_opt drops a problem's automaton past this many nodes


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct printable tokens; index positions are stable."""

    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"duplicate tokens in alphabet {self.symbols}")
        if {"", BOTTOM, WILDCARD} & set(self.symbols):
            raise ValidationError("alphabet may not contain an empty token, '_|_' or '*'")
        for token in self.symbols:
            if "," in token:
                raise ValidationError(f"token {token!r} contains ',', which separates tokens")
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
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise ParseError("must be a number or a string")
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

    def resolve(self, parameters) -> Cost:
        if self.infinity > 0:
            return POS_INF
        if self.infinity < 0:
            return NEG_INF
        total = self.const
        for name, coeff in self.terms:
            total += coeff * parameters[name]
        return Cost(total)


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
        # each rule's (Cost, the cost times _scale: an int, or the POS_INF /
        # NEG_INF sentinel); the memo maps (x-window, y-window) to its first match's
        costs = [rule.cost.resolve(self.parameters) for rule in self.rules]
        scaled, scale = over_common_denominator([c.value for c in costs if c.is_finite])
        scaled = iter(scaled)
        rule_costs = tuple((c, next(scaled) if c.is_finite else c) for c in costs)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_rule_costs", rule_costs)
        object.__setattr__(self, "_lookup_memo", {})
        # horizon -> debruijn.Skeleton; lives and dies with this problem
        object.__setattr__(self, "_skeleton_memo", {})
        # offline_opt's automaton: rows, vectors, nodes and moves
        object.__setattr__(self, "_opt_memo", ({}, [], {}, []))

    # -- core cost access ------------------------------------------------

    def lookup_cost(self, x_window, y_window) -> Cost:
        """Cost of the first rule matching the window pair (first-match order)."""
        key = (tuple(x_window), tuple(y_window))
        return (self._lookup_memo.get(key) or self._resolve(key))[0]

    def lookup_scaled(self, x_window, y_window):
        """The same cost times the problem's scale: an exact int, or the
        POS_INF / NEG_INF sentinel."""
        key = (tuple(x_window), tuple(y_window))
        return (self._lookup_memo.get(key) or self._resolve(key))[1]

    def _resolve(self, key):
        """Validate a window pair and memoize its first match's (Cost, scaled)."""
        xw, yw = key
        if len(xw) != self.horizon_r + 1 or len(yw) != self.horizon_r + 1:
            raise ValidationError("window length must be r+1")
        for sym in xw:
            if sym is not None:
                self.input_alphabet.index(sym)
        for sym in yw:
            if sym is not None:
                self.output_alphabet.index(sym)
        for rule, entry in zip(self.rules, self._rule_costs):
            if rule.matches(xw, yw):
                self._lookup_memo[key] = entry
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

        The aggregate is taken over the scaled ints (or sentinels) of the
        memo's entries and turned back into a `Cost` once.
        """
        n = len(x_seq)
        if n != len(y_seq):
            raise ValidationError("input and output sequences differ in length")
        y_windows = _windows(self.initial_outputs + tuple(y_seq), n)
        memo = self._lookup_memo
        keys = zip(self._x_windows(x_seq), y_windows)
        per_step, scaled = tuple(zip(*[memo.get(k) or self._resolve(k) for k in keys])) or ((), ())
        if not scaled and self.aggregation != "sum":
            raise ValidationError("min/max aggregation of an empty sequence")
        total = {"sum": sum, "min": min, "max": max}[self.aggregation](scaled)
        return CostBreakdown(per_step, self._unscale(total))

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
        return replace(self, parameters=params)


# -- offline optimum ------------------------------------------------------


def offline_opt(problem: LocalProblem, x_seq):
    """Exact offline optimum over all output sequences, with one optimizer.

    A dynamic program over states = the last r outputs, on the problem's
    integer view: step costs are the memo's scaled ints or the +inf / -inf
    sentinels, so every total is exact and only the optimum is turned back
    into a `Cost`. The step combine is + for sum aggregation and max or
    min for the others. Max and min commute with the per-state minimum (a
    bottleneck path semiring), so the running aggregate never enters the
    state. A max objective negates every step cost, which for min/max also
    swaps the two, and minimizes; every total starts at the combine's
    identity.

    A state is coded in base |Y| with its symbols ranked in sort order, so
    ascending codes visit states as sorted() does on symbol tuples. Outputs
    are tried in alphabet order and only a strict improvement replaces a
    state's entry, which fixes the returned outputs. A step whose sum would
    be +inf plus -inf is skipped.

    One total per state is exact unless a sum can clash: a finite total
    dominates +inf, but -inf does not dominate a finite total, which a
    later +inf step turns into +inf where -inf clashes. So when rule costs
    of both infinities exist, each state has two slots: the -inf total
    first, then the best other total. A step lands in the -inf slot exactly
    when it comes from one or costs -inf.

    The steps run on an automaton that the problem keeps: nodes number the
    distinct vectors of slot totals, and `moves[node][x window]` is (shift,
    next node, back row), so a step made before from a node at a window, in
    any call, costs one lookup. A move depends on its node and window alone,
    so no result depends on earlier calls; a call that starts past
    `OPT_NODE_CAP` nodes drops the automaton. A sum's vector is kept less its
    least finite total, the shift, which no comparison or clash sees; these
    normalized work functions take few values. Max and min are not
    shift-invariant, so their totals stay whole. A back row holds (previous
    slot, output).
    """
    if not x_seq:
        raise ValidationError("offline_opt requires a non-empty input")
    r = problem.horizon_r
    outputs = problem.output_alphabet.symbols
    ny = len(outputs)
    n_states = ny**r
    by_rank = sorted(outputs)
    rank = {y: k for k, y in enumerate(by_rank)}
    states = list(product(by_rank, repeat=r))
    sign = 1 if problem.objective == "min" else -1
    aggregation = problem.aggregation
    if sign < 0 and aggregation != "sum":
        aggregation = "min" if aggregation == "max" else "max"
    combine, identity = {  # the step combine and its identity
        "sum": (None, 0),  # an inline +, which a call would slow down
        "max": (max, NEG_INF),
        "min": (min, POS_INF),
    }[aggregation]
    # slots per state: two (the -inf total, then the others) when a sum can
    # clash, else one
    infinities = {rule.cost.infinity for rule in problem.rules}  # +1, -1 or 0 each
    slots = 2 if combine is None and {1, -1} <= infinities else 1
    n_slots = n_states * slots
    start = 0
    for y in problem.initial_outputs:
        start = start * ny + rank[y]

    # rows[x window, slot]: (next slot, signed scaled cost, back entry) per
    # output, built the first time the slot is reached at that window, since
    # a pair that is never reached need not match any rule. Rows and steps
    # are stored only once whole, so a call that raises leaves them sound.
    rows, vectors, nodes, moves = memo = problem._opt_memo
    if len(vectors) > OPT_NODE_CAP:
        for part in memo:
            part.clear()
    if not vectors:  # node 0: the start state at the combine's identity
        first = [None] * n_slots
        first[start * slots + slots - 1] = identity
        vectors.append(tuple(first))  # node -> its (shifted) slot totals
        nodes[vectors[0]] = 0
        moves.append({})

    def row(xw, slot):
        # other: 1 in the second of two slots, which holds the totals above -inf
        s, other = divmod(slot, slots)
        entries = []
        for y in outputs:
            scaled = problem.lookup_scaled(xw, states[s] + (y,))
            if sign < 0:
                scaled = _negated(scaled)
            nxt = (s * ny + rank[y]) % n_states * slots
            if other and scaled is not NEG_INF:
                nxt += 1
            entries.append((nxt, scaled, (slot, y)))
        rows[xw, slot] = entries
        return entries

    def step(node, xw):
        cur = [None] * n_slots
        back = [None] * n_slots
        for slot, acc in enumerate(vectors[node]):
            if acc is None:
                continue
            for nxt, cost, entry in rows.get((xw, slot)) or row(xw, slot):
                if combine is None:
                    try:
                        total = acc + cost
                    except InfinityClash:
                        continue
                else:
                    total = combine(acc, cost)
                old = cur[nxt]
                if old is None or total < old:
                    cur[nxt] = total
                    back[nxt] = entry
        shift = 0
        if combine is None:
            shift = min((t for t in cur if type(t) is int), default=0)
            cur = [t - shift if type(t) is int else t for t in cur]
        vector = tuple(cur)
        if vector not in nodes:
            nodes[vector] = len(vectors)
            vectors.append(vector)
            moves.append({})
        moves[node][xw] = move = (shift, nodes[vector], back)
        return move

    node, offset, backs = 0, 0, []
    for xw in problem._x_windows(x_seq):
        shift, node, back = moves[node].get(xw) or step(node, xw)
        offset += shift
        backs.append(back)

    best_slot, best = None, None
    for slot, total in enumerate(vectors[node]):
        if total is not None and (best is None or total < best):
            best_slot, best = slot, total
    if best is None:
        raise InfinityClash("every output sequence meets both +inf and -inf")
    best += offset  # a sentinel saturates
    ys, slot = [], best_slot
    for back in reversed(backs):
        slot, y = back[slot]
        ys.append(y)
    ys.reverse()
    return problem._unscale(best if sign > 0 else _negated(best)), tuple(ys)


def _windows(padded, n):
    """The n windows of r+1 consecutive symbols of padded (r = len - n)."""
    return zip(*(padded[k : k + n] for k in range(len(padded) - n + 1)))


def _negated(scaled):
    if isinstance(scaled, int):
        return -scaled
    return NEG_INF if scaled is POS_INF else POS_INF


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


def parse_document(document) -> dict:
    """The JSON object of a document given as JSON text or as a dict."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("document must be a JSON object")
    return document


_KIND_NAMES = {list: "a JSON array", dict: "a JSON object", int: "an integer"}


def document_field(doc, name, kind, default=None):
    """doc[name], or `default` when absent, once it is a JSON array (kind
    list), object (kind dict) or integer (kind int; not true or false)."""
    value = doc.get(name, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"must be {_KIND_NAMES[kind]}", field=name)
    return value


def load_problem(document) -> LocalProblem:
    """Parse and validate a problem document (JSON text or a dict)."""
    doc = parse_document(document)
    for fieldname in _REQUIRED_FIELDS:
        if fieldname not in doc:
            raise ParseError("missing field", field=fieldname)

    inputs = Alphabet(tuple(str(s) for s in document_field(doc, "inputs", list)))
    outputs = Alphabet(tuple(str(s) for s in document_field(doc, "outputs", list)))
    r = document_field(doc, "r", int)

    parameters = {}
    for name, value in document_field(doc, "parameters", dict, {}).items():
        try:
            parameters[name] = parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {value!r}", field=f"parameters.{name}")

    rules = []
    for k, raw in enumerate(document_field(doc, "rules", list)):
        loc = f"rules[{k}]"
        if not isinstance(raw, dict) or not {"x", "y", "cost"} <= set(raw):
            raise ParseError("rule needs x, y and cost", field=loc)
        if not isinstance(raw["x"], list) or not isinstance(raw["y"], list):
            raise ParseError("x and y must be JSON arrays", field=loc)
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
            raise ParseError(str(exc), field=f"{loc}.cost") from None
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational in {raw['cost']!r}", field=f"{loc}.cost") from None
        for name, _coeff in cost.terms:
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
        initial_outputs=tuple(
            str(t) for t in document_field(doc, "initial_outputs", list, [])
        ),
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

    def reachable():
        yield from product(product(xs, repeat=r + 1), product(ys, repeat=r + 1))
        for i in range(1, r + 1):  # boundary steps
            init = tuple(problem.initial_outputs[i - 1 :])
            for xtail in product(xs, repeat=i):
                for ytail in product(ys, repeat=i):
                    yield (None,) * (r + 1 - i) + xtail, init + ytail

    fired = set()  # ids of the _rule_costs entries _resolve returns, one tuple per rule
    for xw, yw in reachable():
        try:
            fired.add(id(problem._resolve((xw, yw))))
        except NoMatchingRule:
            raise ValidationError(
                f"problem {problem.name!r}: no rule covers x={xw} y={yw}"
            ) from None
    return [
        f"rule {k} ({','.join(rule.x_pattern)} / {','.join(rule.y_pattern)}) never fires"
        for k, (rule, entry) in enumerate(zip(problem.rules, problem._rule_costs))
        if id(entry) not in fired
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
