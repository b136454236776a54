"""Time-local policies and the analytical algorithms for file migration.

All executions follow the same output convention: the output at step i is
a function of the window (x_{i-T}, ..., x_{i-1}), whose positions before the
first input are missing or hold placeholders (None). Both table kinds, of
output indices or of exact probabilities, share one core that checks them,
reads them from documents and walks a rolling window code that reads missing
positions as the input alphabet's first symbol. Clock-driven policies answer
`output_at(window, i)` and handle boundaries themselves. `run_policy` runs
any policy: a table walks its codes (a behavioural one draws one coin per
step from the seed), a rule or clocked policy gets the last min(T, i-1) inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidAlpha,
    InvalidHorizon,
    ParseError,
    TableTooLarge,
    ValidationError,
)
from .exact import parse_rational, format_rational
from .problems import Alphabet, document_field, parse_document

TABLE_GUARD = 2**24  # max |X|^T entries a dense table may hold


def window_index(symbol_indices, base) -> int:
    """Dense table index of a window, oldest symbol most significant."""
    code = 0
    for idx in symbol_indices:
        code = code * base + idx
    return code


def decode_window(code, base, length):
    """Inverse of window_index."""
    out = []
    for _ in range(length):
        out.append(code % base)
        code //= base
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class _Table:
    """Dense table over the length-T input windows, indexed by window code;
    each kind checks, parses, writes and runs its own entries."""

    horizon: int
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    table: tuple  # one entry per window code

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("policy horizon must be positive")
        size = len(self.input_alphabet) ** self.horizon
        if len(self.table) != size:
            raise ValidationError(
                f"table must have |X|^T = {size} entries, got {len(self.table)}"
            )
        self._check_entries()

    def _codes(self, x_seq):
        """Code of the window each step reads; short windows are filled
        with the first input symbol."""
        base = len(self.input_alphabet)
        modulus = base**self.horizon
        index = self.input_alphabet.index
        codes, code = [], 0  # all-first-symbol window
        for x in x_seq:
            codes.append(code)
            code = (code * base + index(x)) % modulus
        return codes

    @classmethod
    def from_entries(cls, horizon, input_alphabet, output_alphabet, entries):
        """Build from a {window-string: entry} map (oldest-first keys)."""
        if horizon < 1:
            raise ValidationError(f"policy horizon must be positive, got {horizon}")
        base = len(input_alphabet)
        TableTooLarge.check(base, horizon, TABLE_GUARD)
        table = [None] * base**horizon
        single = all(len(t) == 1 for t in input_alphabet.symbols)
        for key, value in entries.items():
            tokens = tuple(key) if single else tuple(key.split(","))
            if len(tokens) != horizon:
                raise ValidationError(f"window {key!r} does not have {horizon} tokens")
            code = window_index([input_alphabet.index(t) for t in tokens], base)
            try:
                table[code] = cls._parse_entry(value, output_alphabet)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational {value!r}", field=f"entries.{key}") from None
        missing = table.count(None)
        if missing:
            raise ValidationError(f"{missing} windows missing from entries")
        return cls(horizon, input_alphabet, output_alphabet, tuple(table))


class DeterministicPolicy(_Table):
    """Dense map from length-T input windows to one output symbol index."""

    kind = "deterministic"

    def _check_entries(self):
        for entry in self.table:
            if not 0 <= entry < len(self.output_alphabet):
                raise ValidationError(f"table entry {entry} outside output alphabet")

    @staticmethod
    def _parse_entry(value, output_alphabet):
        return output_alphabet.index(str(value))

    def _format_entry(self, entry):
        return self.output_alphabet.symbols[entry]

    def output_at(self, window, i):
        """Output for one window; placeholders read as the first symbol."""
        index = self.input_alphabet.index
        code = window_index(
            (0 if x is None else index(x) for x in window), len(self.input_alphabet)
        )
        return self.output_alphabet.symbols[self.table[code]]

    def run(self, x_seq, seed=None):
        """Outputs y_1..y_n; a deterministic table draws no coins from `seed`."""
        symbols, table = self.output_alphabet.symbols, self.table
        return tuple([symbols[table[code]] for code in self._codes(x_seq)])


class RandomizedPolicy(_Table):
    """Behavioral policy over a binary output alphabet.

    table[w] is the exact probability of outputting the second output
    symbol ("1" for file migration) on window w; a fresh uniform variate
    is drawn at every step.
    """

    kind = "randomized"

    def _check_entries(self):
        if len(self.output_alphabet) != 2:
            raise ValidationError("randomized policies need a binary output alphabet")
        for p in self.table:
            if not 0 <= p <= 1:
                raise ValidationError(f"probability '{p}' outside [0, 1]")

    @staticmethod
    def _parse_entry(value, output_alphabet):
        return parse_rational(value)

    def _format_entry(self, entry):
        return format_rational(entry)

    def run(self, x_seq, seed):
        """Outputs y_1..y_n, one variate per step from `random.Random(seed)`."""
        coin = random.Random(seed).random
        symbols, table = self.output_alphabet.symbols, self.table
        return tuple([symbols[coin() < table[code]] for code in self._codes(x_seq)])


# -- clocked policies -------------------------------------------------------


class ResetWrapper:
    """Clocked wrapper that restarts a classic online algorithm every T steps.

    The wrapped algorithm is a pure function from the full history seen
    since the last reset to the next output; outputs within a block
    therefore depend only on inputs since the block started.
    """

    def __init__(self, classic, horizon):
        if horizon < 1:
            raise InvalidHorizon("reset block length must be positive")
        self.classic = classic
        self.horizon = horizon

    def output_at(self, window, i):
        T = self.horizon
        since_reset = (i - 1) % T
        history = window[len(window) - since_reset :] if since_reset else ()
        return self.classic(tuple(history))


class ThresholdMigrator:
    """Classic full-history file-migration rule used to demo the wrapper:
    migrate once the number of mismatched requests since the last move
    reaches ceil(alpha)."""

    def __init__(self, alpha):
        self.threshold = max(1, math.ceil(alpha))

    def __call__(self, history):
        loc, misses = "0", 0
        for x in history:
            if x != loc:
                misses += 1
                if misses >= self.threshold:
                    loc, misses = x, 0
        return loc


class SlidingWindowRule:
    """Deterministic rule for two-node file migration with horizon T >= 6.

    With lam = min(ceil(T/6), alpha), a b-window is a length-3*lam segment
    holding at least 2*lam requests to node b. The rule outputs b for the
    most recent b-window in the visible horizon and 0 when none exists.
    """

    def __init__(self, horizon, alpha):
        if horizon < 6:
            raise InvalidHorizon("the sliding window rule needs T >= 6")
        alpha = parse_rational(alpha)
        if alpha < 1:
            raise InvalidAlpha("the sliding window rule assumes alpha >= 1")
        self.horizon = horizon
        self.alpha = alpha
        self.lam = min(math.ceil(horizon / 6), int(alpha))

    def output(self, window):
        horizon = [x for x in window if x is not None]
        seg = 3 * self.lam
        need = 2 * self.lam
        # scan segments by decreasing end index; the first b-window wins
        for end in range(len(horizon), seg - 1, -1):
            n1 = sum(x == "1" for x in horizon[end - seg : end])
            n0 = seg - n1
            if n1 >= need:
                return "1"
            if n0 >= need:
                return "0"
        return "0"

    def output_at(self, window, i):
        return self.output(window)


class MixedResettingStrategy:
    """Deterministic member k of the Mixed Resetting family.

    A counter starts at k and decreases on every request; when it hits
    zero the file moves to the current requester and the counter resets
    to T, so moves happen at times k, k+T, k+2T, ... . The output at step
    i is the location that serves request i: node 0 before the first move
    takes effect, afterwards the request seen at the latest move time
    strictly before i.
    """

    def __init__(self, k, horizon):
        if not 1 <= k <= horizon:
            raise ValidationError("strategy index k must be in [1, T]")
        self.k = k
        self.horizon = horizon

    def output_at(self, window, i):
        k = self.k
        if i <= k:
            return "0"
        # the last move came at time i - lag; the window ends at x_{i-1}
        lag = (i - 1 - k) % self.horizon + 1
        symbol = window[-lag] if lag <= len(window) else None
        if symbol is None:
            raise ValidationError(f"window {window!r} holds no input at move time {i - lag}")
        return symbol


def sample_mixed_resetting(horizon, seed) -> MixedResettingStrategy:
    k = random.Random(seed).randint(1, horizon)
    return MixedResettingStrategy(k, horizon)


# -- behavioral coin flip (simulation only) ---------------------------------


def run_coin_flip(x_seq, alpha, seed):
    """Simulate the coin-flip algorithm from location "0"; returns the
    location that served each request.

    After serving a request from elsewhere, the file moves to it with
    probability 1/(2*alpha), which lies in (0, 1] exactly when alpha >= 1/2;
    any other alpha, 0 and below included, is refused with `InvalidAlpha`.
    A coin is drawn at every step. The problem costs the served locations
    like any other outputs, so a move after the last request, which serves
    nothing, is never charged.
    """
    alpha = parse_rational(alpha)
    if alpha < Fraction(1, 2):
        raise InvalidAlpha(f"move probability 1/(2*alpha) needs alpha >= 1/2, got {alpha}")
    p = 1 / (2 * alpha)
    rng = random.Random(seed)
    loc = "0"
    served_at = []
    for x in x_seq:
        served_at.append(loc)
        if rng.random() < p and x != loc:
            loc = x
    return tuple(served_at)


# -- running policies --------------------------------------------------------


def run_policy(policy, x_seq, seed=0):
    """Outputs of any policy on x_seq; seed draws a behavioural table's coins."""
    if isinstance(policy, _Table):
        return policy.run(x_seq, seed)
    T, xs = policy.horizon, tuple(x_seq)
    # a conditional, not max(), which costs a call per step
    return tuple([policy.output_at(xs[i - T if i > T else 0 : i], i + 1) for i in range(len(xs))])


def compile_to_table(rule_policy, horizon, input_alphabet, output_alphabet):
    """Tabulate an unclocked rule on every full window, in code order."""
    TableTooLarge.check(len(input_alphabet), horizon, TABLE_GUARD)
    index = output_alphabet.index
    windows = itertools.product(input_alphabet.symbols, repeat=horizon)
    table = tuple(index(rule_policy.output(window)) for window in windows)
    return DeterministicPolicy(horizon, input_alphabet, output_alphabet, table)


# -- policy files -------------------------------------------------------------


def policy_to_document(policy) -> dict:
    if not isinstance(policy, _Table):
        raise ValidationError(f"cannot serialize policy of type {type(policy).__name__}")
    inputs = policy.input_alphabet
    windows = itertools.product(inputs.symbols, repeat=policy.horizon)  # code order
    return {
        "horizon": policy.horizon,
        "inputs": list(inputs.symbols),
        "outputs": list(policy.output_alphabet.symbols),
        "kind": policy.kind,
        "entries": {inputs.join(w): policy._format_entry(e) for w, e in zip(windows, policy.table)},
    }


def load_policy(document):
    """Parse a policy document, or the first policy of a `synth` result
    document (JSON text or a dict)."""
    doc = parse_document(document)
    if "policies" in doc:
        if not document_field(doc, "policies", list):
            raise ValidationError("synthesis document holds no policies")
        doc = parse_document(doc["policies"][0])
    for fieldname in ("horizon", "inputs", "outputs", "kind", "entries"):
        if fieldname not in doc:
            raise ParseError("missing field", field=fieldname)
    inputs = Alphabet(tuple(str(s) for s in document_field(doc, "inputs", list)))
    outputs = Alphabet(tuple(str(s) for s in document_field(doc, "outputs", list)))
    horizon = document_field(doc, "horizon", int)
    entries = document_field(doc, "entries", dict)
    for cls in (DeterministicPolicy, RandomizedPolicy):
        if doc["kind"] == cls.kind:
            return cls.from_entries(horizon, inputs, outputs, entries)
    raise ParseError(f"unknown kind {doc['kind']!r}", field="kind")
