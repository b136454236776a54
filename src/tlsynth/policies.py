"""Time-local policies and the analytical algorithms for file migration.

All executions follow the same output convention: the output at step i is
a function of the window (x_{i-T}, ..., x_{i-1}), with placeholder entries
(None) for positions before the first input. Every deterministic policy
answers `output_at(window, i)`: tables read a placeholder as the input
alphabet's first symbol, clock-driven policies receive the raw window plus
the step index and handle boundaries themselves. `run_policy` runs any
policy on a sequence; tables take a rolling-code fast path, and a
behavioural table draws its coins from the seed.
"""

from __future__ import annotations

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
class DeterministicPolicy:
    """Dense map from length-T input windows to one output symbol."""

    horizon: int
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    table: tuple  # output symbol indices, indexed by window code

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("policy horizon must be positive")
        size = len(self.input_alphabet) ** self.horizon
        if len(self.table) != size:
            raise ValidationError(
                f"table must have |X|^T = {size} entries, got {len(self.table)}"
            )
        for entry in self.table:
            if not 0 <= entry < len(self.output_alphabet):
                raise ValidationError(f"table entry {entry} outside output alphabet")

    def output_at(self, window, i):
        """Output for one window; placeholders read as the first symbol."""
        index = self.input_alphabet.index
        code = window_index(
            (0 if x is None else index(x) for x in window), len(self.input_alphabet)
        )
        return self.output_alphabet.symbols[self.table[code]]

    def run(self, x_seq):
        """Outputs y_1..y_n; short windows are filled with the first symbol."""
        base = len(self.input_alphabet)
        modulus = base**self.horizon
        symbols = self.output_alphabet.symbols
        index = self.input_alphabet.index
        code = 0  # all-first-symbol window
        out = []
        for x in x_seq:
            out.append(symbols[self.table[code]])
            code = (code * base + index(x)) % modulus
        return tuple(out)

    @staticmethod
    def from_entries(horizon, input_alphabet, output_alphabet, entries):
        """Build from a {window-string: output-symbol} map (oldest-first keys)."""
        table = _table_from_entries(
            horizon, input_alphabet, entries, lambda v: output_alphabet.index(str(v))
        )
        return DeterministicPolicy(horizon, input_alphabet, output_alphabet, tuple(table))


@dataclass(frozen=True)
class RandomizedPolicy:
    """Behavioral policy over a binary output alphabet.

    table[w] is the exact probability of outputting the second output
    symbol ("1" for file migration) on window w; a fresh uniform variate
    is drawn at every step.
    """

    horizon: int
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    table: tuple  # Fractions in [0, 1]

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("policy horizon must be positive")
        if len(self.output_alphabet) != 2:
            raise ValidationError("randomized policies need a binary output alphabet")
        size = len(self.input_alphabet) ** self.horizon
        if len(self.table) != size:
            raise ValidationError(f"table must have |X|^T = {size} entries")
        for p in self.table:
            if not 0 <= p <= 1:
                raise ValidationError(f"probability {p} outside [0, 1]")

    def run(self, x_seq, seed):
        base = len(self.input_alphabet)
        modulus = base**self.horizon
        symbols = self.output_alphabet.symbols
        index = self.input_alphabet.index
        rng = random.Random(seed)
        code = 0
        out = []
        for x in x_seq:
            p = self.table[code]
            out.append(symbols[1] if rng.random() < p else symbols[0])
            code = (code * base + index(x)) % modulus
        return tuple(out)

    @staticmethod
    def from_entries(horizon, input_alphabet, output_alphabet, entries):
        table = _table_from_entries(horizon, input_alphabet, entries, _parse_prob)
        return RandomizedPolicy(horizon, input_alphabet, output_alphabet, tuple(table))


def _parse_prob(raw) -> Fraction:
    p = parse_rational(raw)
    if not 0 <= p <= 1:
        raise ValidationError(f"probability {raw!r} outside [0, 1]")
    return p


def _table_from_entries(horizon, input_alphabet, entries, convert):
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
            table[code] = convert(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {value!r}", field=f"entries.{key}") from None
    missing = [i for i, v in enumerate(table) if v is None]
    if missing:
        raise ValidationError(f"{len(missing)} windows missing from entries")
    return table


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
        k, T = self.k, self.horizon
        if i <= k:
            return "0"
        move_time = k + T * ((i - 1 - k) // T)
        idx = move_time - i + len(window)  # window holds x_{i-T} .. x_{i-1}
        symbol = window[idx]
        if symbol is None:
            raise ValidationError(f"window {window!r} holds no input at move time {move_time}")
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
    if isinstance(policy, RandomizedPolicy):
        return policy.run(x_seq, seed)
    if isinstance(policy, DeterministicPolicy):
        return policy.run(x_seq)
    T = policy.horizon
    out = []
    window = [None] * T
    for i in range(1, len(x_seq) + 1):
        out.append(policy.output_at(tuple(window), i))
        window.pop(0)
        window.append(x_seq[i - 1])
    return tuple(out)


def compile_to_table(rule_policy, horizon, input_alphabet, output_alphabet):
    """Tabulate an unclocked rule on every full window."""
    base = len(input_alphabet)
    TableTooLarge.check(base, horizon, TABLE_GUARD)
    table = []
    for code in range(base**horizon):
        idxs = decode_window(code, base, horizon)
        window = tuple(input_alphabet.symbols[i] for i in idxs)
        table.append(output_alphabet.index(rule_policy.output(window)))
    return DeterministicPolicy(horizon, input_alphabet, output_alphabet, tuple(table))


# -- policy files -------------------------------------------------------------


def policy_to_document(policy) -> dict:
    if isinstance(policy, DeterministicPolicy):
        kind, values = "deterministic", [policy.output_alphabet.symbols[o] for o in policy.table]
    elif isinstance(policy, RandomizedPolicy):
        kind, values = "randomized", [format_rational(p) for p in policy.table]
    else:
        raise ValidationError(f"cannot serialize policy of type {type(policy).__name__}")
    inputs = policy.input_alphabet
    entries = {}
    for code, value in enumerate(values):
        idxs = decode_window(code, len(inputs), policy.horizon)
        entries[inputs.join(inputs.symbols[i] for i in idxs)] = value
    return {
        "horizon": policy.horizon,
        "inputs": list(policy.input_alphabet.symbols),
        "outputs": list(policy.output_alphabet.symbols),
        "kind": kind,
        "entries": entries,
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
    if doc["kind"] == "deterministic":
        return DeterministicPolicy.from_entries(horizon, inputs, outputs, entries)
    if doc["kind"] == "randomized":
        return RandomizedPolicy.from_entries(horizon, inputs, outputs, entries)
    raise ParseError(f"unknown kind {doc['kind']!r}", field="kind")
