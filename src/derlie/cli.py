"""Command-line driver: model files, job orchestration, caching, and
deterministic reports.

Model file format (line oriented, ``#`` starts a comment):

    name: s2xs2
    ambient_dim: 4
    minimal: yes            # optional, default yes
    generators:
      a: 1
      b: 1
    differential:           # optional; right-hand sides are bracket
      c: [a, b]             # expressions with rational coefficients
    pairing:                # optional; requires ambient_dim
      a b: 1

Bracket expressions use nested pairs and rational literals, for example
``[a, [b, c]] - 1/2 [b, b]``.

Reports are byte-identical across runs, cache states and worker counts:
cells are sorted by (mode, k, n), JSON keys are sorted, and no timestamps
are emitted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from fractions import Fraction
from math import comb

# CPython's own SHA-256 (_sha2 from 3.12, _sha256 before): hashlib would map
# OpenSSL's libcrypto, about 3.5 MB of every job's peak RSS, to hash a model
# file of a few hundred bytes.  hashlib serves a build without it.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import ENGINE_VERSION
from .dermodel import (
    DerSlice,
    Mode,
    _require_boundary_data,
    derivation_basis,
    homology,
    support_bound,
    support_sum,
)
from .gradedlie import (
    ModelSpec,
    TensorVector,
    apply_values_tensor,
    free_product_generators,
    lie_dim,
    omega,
    pbw_series_check,
    validate_model,
)
from .ratlinalg import CheckFailure, add_scaled

# fistab and reptheory, the character layer, are imported where a job uses
# them, so that a dimension-only job does not compile them.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILURE = 3
EXIT_RESOURCE_CAP = 4

SCHEMA = "derlie-report/1"


class ParseError(Exception):
    """Malformed model file, with position information: col is the 1-based
    column in the raw line, or 0 when the error concerns the whole line."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(Exception):
    """A structurally valid file describing an invalid model."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


# ---- bracket-expression parsing ----------------------------------------------


def _parse_number(text: str, line: int, col: int, rational: bool = False):
    """text, which starts at the given column of its line, as an optional
    '-' and decimal digits (str.isdecimal, as the tokenizer reads them),
    then, for a rational, an optional '/' and more digits."""
    num, slash, den = text.partition("/") if rational else (text, "", "")
    try:
        if num.removeprefix("-").isdecimal() and (
                not slash or den.isdecimal() and int(den)):
            return Fraction(int(num), int(den)) if slash else int(num)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"bad number {text!r}", line, col)


def _tokenize(text: str, line: int, col: int) -> list[tuple[str, object, int]]:
    """Tokens of text, which starts at the given column of its line; each
    token carries its own column."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "[],+-*/":
            tokens.append((ch, ch, col + i))
            i += 1
            continue
        if ch.isdecimal():  # int() refuses digits such as '²'
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", _parse_number(text[i:j], line, col + i),
                           col + i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("sym", text[i:j], col + i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col + i)
    return tokens


def parse_bracket_expression(text: str, line: int = 0, col: int = 1) -> list:
    """Parse a sum of rational multiples of nested brackets into
    ``[(coefficient, node), ...]`` terms; text starts at column col."""
    tokens = _tokenize(text, line, col)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None,
                                                      col + len(text))

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", line,
                             tok[2])
        pos += 1
        return tok

    def parse_rational() -> Fraction:
        num = take("int")[1]
        if peek()[0] == "/":
            take("/")
            _, den, den_col = take("int")
            if den == 0:
                raise ParseError("zero denominator", line, den_col)
            return Fraction(num, den)
        return Fraction(num)

    def parse_atom() -> list:
        tok = peek()
        if tok[0] == "sym":
            take()
            return [(Fraction(1), tok[1])]
        if tok[0] == "[":
            take("[")
            left = parse_sum()
            take(",")
            right = parse_sum()
            take("]")
            return [(cl * cr, (nl, nr)) for cl, nl in left
                    for cr, nr in right]
        raise ParseError(f"expected a generator or '[', found {tok[1]!r}",
                         line, tok[2])

    def parse_term(sign: Fraction) -> list:
        coeff = Fraction(1)
        if peek()[0] == "int":
            coeff = parse_rational()
            if peek()[0] == "*":
                take("*")
        atom = parse_atom()
        return [(sign * coeff * c, n) for c, n in atom]

    def parse_sum() -> list:
        terms = []
        sign = Fraction(1)
        if peek()[0] in ("+", "-"):
            sign = Fraction(-1) if take()[0] == "-" else Fraction(1)
        terms.extend(parse_term(sign))
        while peek()[0] in ("+", "-"):
            sign = Fraction(-1) if take()[0] == "-" else Fraction(1)
            terms.extend(parse_term(sign))
        return terms

    result = parse_sum()
    tok = peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", line, tok[2])
    return result


# ---- model file parsing --------------------------------------------------------


def parse_model_text(text: str) -> ModelSpec:
    name = None
    ambient: int | None = None
    minimal = True
    generators: list[tuple[str, int]] = []
    differential: dict[str, list] = {}
    pairing: list[tuple[str, str, Fraction]] = []
    section = None
    seen = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0].isspace()
        stripped = line.strip()
        if not indented:
            section = None
            if ":" not in stripped:
                raise ParseError("expected 'key: value' or a section header",
                                 lineno)
            key, _, value = line.partition(":")
            value_col = len(line) - len(value.lstrip()) + 1
            key = key.strip()
            value = value.strip()
            if key in seen:
                raise ParseError(f"duplicate field {key!r}", lineno)
            seen.add(key)
            if key in ("generators", "differential", "pairing"):
                if value:
                    raise ParseError(f"section header {key!r} takes no value",
                                     lineno)
                section = key
            elif key == "name":
                name = value
            elif key == "ambient_dim":
                ambient = _parse_number(value, lineno, value_col)
            elif key == "minimal":
                if value not in ("yes", "no", "true", "false"):
                    raise ParseError("minimal must be yes or no", lineno)
                minimal = value in ("yes", "true")
            else:
                raise ParseError(f"unknown field {key!r}", lineno)
            continue
        if section is None:
            raise ParseError("indented line outside a section", lineno)
        if ":" not in stripped:
            raise ParseError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key_col = len(key) - len(key.lstrip()) + 1
        value_col = len(line) - len(value.lstrip()) + 1
        key = key.strip()
        value = value.strip()
        if section == "generators":
            degree = _parse_number(value, lineno, value_col)
            tokens = _tokenize(key, lineno, key_col)
            if [tok[:2] for tok in tokens] != [("sym", key)]:
                raise ParseError(f"bad generator symbol {key!r}", lineno)
            generators.append((key, degree))
        elif section == "differential":
            if key in differential:
                raise ParseError(f"second differential of {key!r}", lineno)
            differential[key] = parse_bracket_expression(value, lineno,
                                                         value_col)
        else:  # pairing
            syms = key.split()
            if len(syms) != 2:
                raise ParseError(
                    "pairing entries look like 'sym sym: rational'", lineno)
            pairing.append((syms[0], syms[1], _parse_number(
                value, lineno, value_col, rational=True)))

    if name is None:
        raise ParseError("missing 'name' field", 1)
    if not generators:
        raise ParseError("model declares no generators", 1)
    return ModelSpec(name, generators, differential or None, pairing or None,
                     ambient, minimal)


MODELS_DIR = os.path.join(os.path.dirname(__file__), "models")


def bundled_model_names() -> list[str]:
    return sorted(name[:-len(".model")] for name in os.listdir(MODELS_DIR)
                  if name.endswith(".model"))


def resolve_model_path(spec: str) -> tuple[str, bytes]:
    """A filesystem path, or the name of a bundled model."""
    if os.path.exists(spec):
        with open(spec, "rb") as fh:
            return spec, fh.read()
    candidate = os.path.join(MODELS_DIR, f"{spec}.model")
    if os.path.isfile(candidate):
        with open(candidate, "rb") as fh:
            return candidate, fh.read()
    raise FileNotFoundError(
        f"no model file {spec!r}; bundled models: "
        + ", ".join(bundled_model_names()))


def _read_model(spec: str) -> tuple[bytes, ModelSpec]:
    """The raw bytes and the parsed, validated model of a model file path or
    bundled name; raises OSError, ParseError or ValidationError."""
    _, raw = resolve_model_path(spec)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"model file is not UTF-8: {exc.reason}",
                         raw[:exc.start].count(b"\n") + 1)
    model = parse_model_text(text)
    problems = validate_model(model)
    if problems:
        raise ValidationError(problems)
    return raw, model


def load_model(path: str) -> ModelSpec:
    """Parse and validate a model file; raises ParseError or
    ValidationError."""
    return _read_model(path)[1]


# ---- jobs ----------------------------------------------------------------------


class JobSpec:
    """One `derlie compute` job, validated on construction."""

    def __init__(self, model_path: str, mode: Mode,
                 k_values: tuple[int, ...], n_values: tuple[int, ...],
                 decompose: bool = False, check_consistency: bool = False,
                 check_generation: bool = False, check_pbw: bool = False,
                 fmt: str = "table", cache_dir: str | None = None,
                 seed: int = 0, max_dim: int = 20000, workers: int = 1):
        if not k_values or not n_values:
            raise ValueError("k and n ranges must be nonempty")
        if min(k_values) < 1:
            raise ValueError("homological degrees start at k = 1")
        if min(n_values) < 1:
            raise ValueError("arities start at n = 1")
        if max(k_values) > MAX_VALUE or max(n_values) > MAX_VALUE:
            raise ValueError(f"k and n values are at most {MAX_VALUE}")
        if fmt not in ("table", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        if max_dim < 1:
            raise ValueError("max-dim must be positive")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.model_path, self.mode = model_path, mode
        self.k_values, self.n_values = k_values, n_values
        self.decompose, self.check_pbw = decompose, check_pbw
        self.check_consistency = check_consistency
        self.check_generation = check_generation
        self.fmt, self.cache_dir, self.seed = fmt, cache_dir, seed
        self.max_dim, self.workers = max_dim, workers


# No job over a longer range can finish: its n values pass --max-dim only
# while small, and its k values run past every computable slice.
MAX_RANGE_VALUES = 10**6
# Larger k and n values are refused, so that pricing a cell stays fast: the
# Lyndon counts behind the price cost O(k^2), and S_n has p(n) cycle types
# (p(100) = 190,569,292), far beyond any character that can be listed.
MAX_VALUE = 100


def parse_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        a, _, b = text.partition("..")
        lo, hi = int(a), int(b)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    if hi - lo >= MAX_RANGE_VALUES:
        raise ValueError(f"range {text!r} holds more than "
                         f"{MAX_RANGE_VALUES} values")
    return tuple(range(lo, hi + 1))


# ---- partitions as strings ------------------------------------------------------


def partition_str(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


def partition_from_str(s: str):
    body = s.strip()[1:-1].strip()
    if not body:
        return ()
    return tuple(int(x) for x in body.split(","))


def _partition_sort_key(p):
    return (sum(p), p)


# ---- cache ----------------------------------------------------------------------


def _cell_key(model_sha: str, mode: Mode, n: int, k: int,
              decompose: bool) -> str:
    blob = f"{model_sha}|{ENGINE_VERSION}|{mode.value}|{n}|{k}|{int(decompose)}"
    return sha256(blob.encode()).hexdigest()


def _checksum(cell: dict) -> str:
    return sha256(json.dumps(cell, sort_keys=True).encode()).hexdigest()


def _cache_read(cache_dir: str | None, key: str) -> dict | None:
    """The cached cell, or None when the entry is missing, unreadable, or
    stored under another key or checksum than its own."""
    if cache_dir is None:
        return None
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except (OSError, ValueError):
        return None
    if (not isinstance(value, dict) or value.pop("key", None) != key
            or value.pop("sha256", None) != _checksum(value)):
        return None
    return value


def _cache_write(cache_dir: str | None, key: str, cell: dict) -> None:
    """Write (or repair) one entry atomically, with its key and checksum;
    an entry that cannot be written is left uncached."""
    if cache_dir is None:
        return
    path = os.path.join(cache_dir, key + ".json")
    tmp = path + f".tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({**cell, "key": key, "sha256": _checksum(cell)}, fh,
                      sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


# ---- cell computation ------------------------------------------------------------


def _compute_cell(model: ModelSpec, mode: Mode, n: int, k: int,
                  decompose: bool) -> dict:
    # H_k(n) is the sum over s of C(n, s) copies of the block W_s(k)
    dim = sum(comb(n, s) * homology(model, s, k, mode, block=True).dimension
              for s in range(1, min(n, support_bound(model, k)) + 1))
    cell = {"mode": mode.value, "n": n, "k": k, "dim": dim}
    if decompose:
        from . import reptheory
        from .fistab import character
        chi = character(model, n, k, mode)
        dec = reptheory.decompose(chi)
        by_partition = lambda kv: _partition_sort_key(kv[0])
        cell["character"] = {
            partition_str(mu): str(v)
            for mu, v in sorted(chi.values.items(), key=by_partition)}
        cell["decomposition"] = {
            partition_str(lam): m
            for lam, m in sorted(dec.multiplicities.items(),
                                 key=by_partition)}
        cell["padded"] = {
            partition_str(lam): m
            for lam, m in sorted(dec.padded().items(), key=by_partition)}
    return cell


def _is_cell(entry: dict | None, mode: Mode, n: int, k: int,
             decompose: bool) -> bool:
    """Whether a cache entry holds exactly the fields _compute_cell writes
    for this cell, each in the form it writes; anything else is a miss and
    gets rewritten."""
    fields = {"mode", "n", "k", "dim"}
    if decompose:
        fields |= {"character", "decomposition", "padded"}
    if not (entry is not None and entry.keys() == fields
            and (entry["mode"], entry["n"], entry["k"]) == (mode.value, n, k)
            and _is_count(entry["dim"])):
        return False
    if not decompose:
        return True
    chi, dec, padded = (entry[f] for f in ("character", "decomposition",
                                           "padded"))
    return (all(isinstance(t, dict) for t in (chi, dec, padded))
            and all(_is_partition(mu, n) and _is_rational(v)
                    for mu, v in chi.items())
            and all(_is_partition(lam) and _is_count(m)
                    for lam, m in [*dec.items(), *padded.items()]))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_rational(text) -> bool:
    """Whether text is the str of a Fraction."""
    if type(text) is not str or \
            not text.removeprefix("-").replace("/", "", 1).isdigit():
        return False  # before Fraction, which would expand "1e999999999"
    try:
        return str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


def _is_partition(text: str, n: int | None = None) -> bool:
    """Whether text is the partition_str of a partition (of n, if given)."""
    try:
        p = partition_from_str(text)
    except ValueError:
        return False
    return (partition_str(p) == text and all(x > 0 for x in p)
            and list(p) == sorted(p, reverse=True) and n in (None, sum(p)))


def _cell_worker(args) -> dict:
    return _compute_cell(*args)


def _predicted_cost(model: ModelSpec, n: int, k: int, mode: Mode,
                    full: bool = False) -> int:
    """Largest pointed dimension of the slices the cell builds at one
    arity, or of the omega target of its top degree in boundary mode.  A
    cell is built from blocks, each filtered from the slices at its arity
    s <= support_bound; a full cell, which the consistency check builds, is
    priced at n.  Degree k is always built, degree k + 1 only for a nonzero
    differential and a nonempty degree-k block (or full slice), which is
    counted from Lie dimensions."""
    def pointed(j, kk):
        genset = free_product_generators(model, j)
        return sum(lie_dim(genset, d + kk) for d in genset.degrees)

    def target(j, kk):
        if mode is Mode.POINTED:
            return 0
        return lie_dim(free_product_generators(model, j),
                       model.ambient_dim - 2 + kk)

    def slice_dim(j):
        return pointed(j, k) - target(j, k)

    zero_d = free_product_generators(model, 1).has_zero_differential
    cost = 0
    for s in ((n,) if full else range(1, min(n, support_bound(model, k)) + 1)):
        top = k if zero_d or not support_sum(s, slice_dim, not full) else k + 1
        cost = max(cost, target(s, top),
                   sum(pointed(s, kk) for kk in range(k, top + 1)))
    return cost


# ---- checks ----------------------------------------------------------------------


def _basis_bracket(sl: DerSlice, i: int, j: int) -> dict[int, TensorVector]:
    """[a, b] = a o b - (-1)^k b o a for the basis vectors a, b at positions
    i, j of a degree-k slice, by its nonzero generator values in tensor
    coordinates; a value outside the Lyndon span raises
    BasisExpressionFailure."""
    genset, k = sl.genset, sl.k
    a: dict[int, TensorVector] = {}
    b: dict[int, TensorVector] = {}
    for values, pos in ((a, i), (b, j)):
        for p, c in sl.local_to_pointed({pos: 1}).items():
            g, e = sl.coords[p]
            add_scaled(values.setdefault(g, {}), c, genset.expansion(e))
    sign = -1 if k % 2 else 1
    out = {}
    for g in sorted(a.keys() | b.keys()):
        vec = apply_values_tensor(genset, k, a, b.get(g, {}))
        add_scaled(vec, -sign, apply_values_tensor(genset, k, b, a.get(g, {})))
        genset.from_tensor(genset.degrees[g] + 2 * k, vec)  # span check
        if vec:
            out[g] = vec
    return out


def _closure_spot_check(model: ModelSpec, job: JobSpec) -> dict:
    """Seeded random brackets of basis derivations annihilate omega, so
    stay inside the boundary subcomplex (the kernel of theta ->
    theta(omega)); sampled at the first nonempty slice in ascending k, then
    ascending n, on pointed coordinates in the tensor algebra."""
    ks = sorted(job.k_values)
    for k, n in ((k, n) for k in ks for n in sorted(job.n_values)):
        cost = _predicted_cost(model, n, k, Mode.BOUNDARY, full=True)
        if cost > job.max_dim:
            return {"name": "bracket-closure", "outcome": "skipped",
                    "detail": f"slice at n={n}, k={k} above max-dim"}
        sl = derivation_basis(model, n, k, Mode.BOUNDARY)
        if sl.dim:
            break
    else:
        degrees = f"{ks[0]}" if len(ks) == 1 else f"{ks[0]}..{ks[-1]}"
        return {"name": "bracket-closure", "outcome": "skipped",
                "detail": f"degree-{degrees} slice empty at every n"}
    rng = random.Random(job.seed)
    w = sl.genset.to_tensor(omega(model, n))
    samples = min(5, sl.dim * sl.dim)
    for _ in range(samples):
        i, j = rng.randrange(sl.dim), rng.randrange(sl.dim)
        if apply_values_tensor(sl.genset, 2 * k, _basis_bracket(sl, i, j), w):
            return {"name": "bracket-closure", "outcome": "fail",
                    "detail": f"bracket image misses omega kernel at n={n}"}
    return {"name": "bracket-closure", "outcome": "pass",
            "detail": f"{samples} sampled pairs at n={n}, k={k}"}


def _run_checks(model: ModelSpec, job: JobSpec,
                cells: list[dict]) -> tuple[list[dict], list[dict]]:
    checks: list[dict] = []
    stability: list[dict] = []

    checks.append({"name": "structure", "outcome": "pass",
                   "detail": "d^2 = 0 and subcomplex closure held on all "
                             "computed cells"})

    if job.check_pbw:
        failures = []
        for n in job.n_values:
            genset = free_product_generators(model, n)
            report = pbw_series_check(genset, 8)
            if not report.ok:
                failures.append(f"n={n} first failure at degree "
                                f"{report.first_failure}")
        checks.append({"name": "pbw", "outcome": "fail" if failures
                       else "pass",
                       "detail": "; ".join(failures) or
                                 "series identity up to degree 8"})

    if job.check_consistency:
        from .fistab import consistency_check
        failures = []
        count = 0
        for m in job.n_values:
            for n in job.n_values:
                if n >= m:
                    continue
                for k in job.k_values:
                    count += 1
                    if not consistency_check(model, n, m, k, job.mode):
                        failures.append(f"(n={n}, m={m}, k={k})")
        checks.append({"name": "consistency", "outcome": "fail" if failures
                       else "pass",
                       "detail": "; ".join(failures) or
                                 f"{count} stabilizer checks"})

    if job.check_generation:
        from . import reptheory
        flags = {}
        for k in job.k_values:
            table = reptheory.generation_check(model, job.mode, k,
                                               job.n_values)
            flags[f"k={k}"] = {str(n): bool(v)
                               for n, v in sorted(table.items())}
        checks.append({"name": "generation", "outcome": "info",
                       "flags": flags})

    if job.decompose:
        from . import reptheory
        ns = sorted(job.n_values)
        for k in job.k_values:
            rows = {c["n"]: {partition_from_str(s): m
                             for s, m in c["padded"].items()}
                    for c in cells if c["k"] == k}
            onset = reptheory.stabilization_onset(ns, rows)
            stability.append({
                "k": k,
                "stabilized_at": onset,
                "verdict": reptheory.stability_verdict(onset, ns),
            })

    if job.mode is Mode.BOUNDARY:
        checks.append(_closure_spot_check(model, job))

    return checks, stability


# ---- run -------------------------------------------------------------------------


def run(job: JobSpec) -> tuple[dict, int]:
    """Execute a job; returns (report, exit code)."""
    try:
        raw, model = _read_model(job.model_path)
    except ParseError as exc:
        return _report(job, "parse-error", error=str(exc)), EXIT_VALIDATION
    except ValidationError as exc:
        return _report(job, "validation-error", error=exc.problems), \
            EXIT_VALIDATION
    except OSError as exc:
        return _report(job, "validation-error", error=str(exc)), \
            EXIT_VALIDATION
    try:
        _require_boundary_data(model, job.mode)
    except ValueError as exc:
        return _report(job, "validation-error", error=str(exc)), \
            EXIT_VALIDATION
    model_sha = sha256(raw).hexdigest()
    ident = {"name": model.name, "sha256": model_sha}

    full = job.check_consistency
    if job.decompose:
        from .reptheory import partition_count
    for n in job.n_values:
        for k in job.k_values:
            cost = _predicted_cost(model, n, k, job.mode, full)
            if job.decompose:  # a character has one value per cycle type
                cost = max(cost, partition_count(n))
            if cost > job.max_dim:
                return _report(
                    job, "resource-cap", ident,
                    error=f"cell (n={n}, k={k}) too large: predicted "
                          f"dimension {cost} exceeds max-dim {job.max_dim}"
                ), EXIT_RESOURCE_CAP

    if job.cache_dir is not None:
        try:
            os.makedirs(job.cache_dir, exist_ok=True)
        except OSError as exc:
            return _report(job, "validation-error",
                           error=f"cache dir unusable: {exc}"), \
                EXIT_VALIDATION

    cells = []
    pending = []
    for k in job.k_values:
        for n in job.n_values:
            key = _cell_key(model_sha, job.mode, n, k, job.decompose)
            cached = _cache_read(job.cache_dir, key)
            if _is_cell(cached, job.mode, n, k, job.decompose):
                cells.append(cached)
            else:
                pending.append((n, k, key))

    try:
        if pending:
            args = [(model, job.mode, n, k, job.decompose)
                    for n, k, _ in pending]
            pool_size = min(job.workers, len(pending), os.cpu_count() or 1)
            if pool_size > 1:
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    results = list(pool.map(_cell_worker, args))
            else:
                results = list(map(_cell_worker, args))
            for (n, k, key), cell in zip(pending, results):
                _cache_write(job.cache_dir, key, cell)
                cells.append(cell)
        checks, stability = _run_checks(model, job, cells)
    except CheckFailure as exc:
        return _report(job, "check-failure", ident,
                       error=f"{type(exc).__name__}: {exc}"), \
            EXIT_CHECK_FAILURE

    cells.sort(key=lambda c: (c["mode"], c["k"], c["n"]))
    failed = any(c.get("outcome") == "fail" for c in checks)
    return _report(job, "check-failure" if failed else "ok", ident,
                   cells=cells, stability=stability, checks=checks), \
        EXIT_CHECK_FAILURE if failed else EXIT_OK


def _report(job: JobSpec, status: str, model: dict | None = None,
            **fields) -> dict:
    """The report of a job: the model's name and sha256 (both None when it
    is not known), the job echo, and the given fields over empty cells,
    stability and checks; an error report has an "error" field."""
    return {
        "schema": SCHEMA,
        "engine": ENGINE_VERSION,
        "model": model or {"name": None, "sha256": None},
        "job": {
            "mode": job.mode.value,
            "k": list(job.k_values),
            "n": list(job.n_values),
            "decompose": job.decompose,
            "check_consistency": job.check_consistency,
            "check_generation": job.check_generation,
            "check_pbw": job.check_pbw,
            "seed": job.seed,
            "max_dim": job.max_dim,
        },
        "cells": [],
        "stability": [],
        "checks": [],
        "status": status,
        **fields,
    }


# ---- rendering -------------------------------------------------------------------


def emit_report(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return _render_table(report).encode()


def _render_table(report: dict) -> str:
    lines = []
    model = report.get("model") or {}
    sha = model.get("sha256")
    lines.append(f"derlie {report['engine']} report ({report['schema']})")
    lines.append(f"model: {model.get('name')}"
                 + (f"  sha256 {sha[:12]}" if sha else ""))
    job = report["job"]
    lines.append(f"mode: {job['mode']}  k: {_range_text(job['k'])}  "
                 f"n: {_range_text(job['n'])}  seed: {job['seed']}")
    lines.append("")
    if "error" in report:
        detail = report["error"]
        if isinstance(detail, list):
            for item in detail:
                lines.append(f"error: {item}")
        else:
            lines.append(f"error: {detail}")
        lines.append(f"status: {report['status']}")
        return "\n".join(lines) + "\n"

    by_k: dict[int, list[dict]] = {}
    for cell in report["cells"]:
        by_k.setdefault(cell["k"], []).append(cell)
    for k in sorted(by_k):
        block = sorted(by_k[k], key=lambda c: c["n"])
        lines.append(f"[k={k}]")
        columns: list = []
        if any("padded" in c for c in block):
            from .reptheory import PaddingInvalid, pad
            names = set()
            for c in block:
                names.update(partition_from_str(s) for s in c.get("padded",
                                                                  {}))
            columns = sorted(names, key=_partition_sort_key)
        header = ["n", "dim"] + [partition_str(c) for c in columns]
        rows = [header]
        for c in block:
            row = [str(c["n"]), str(c["dim"])]
            padded = {partition_from_str(s): v
                      for s, v in c.get("padded", {}).items()}
            for name in columns:
                try:
                    pad(name, c["n"])
                    row.append(str(padded.get(name, 0)))
                except PaddingInvalid:
                    row.append(".")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            lines.append("  " + "  ".join(x.rjust(w)
                                          for x, w in zip(r, widths)))
        for entry in report["stability"]:
            if entry["k"] == k:
                lines.append(f"  verdict: {entry['verdict']}")
        lines.append("")
    if report["checks"]:
        lines.append("checks:")
        for check in report["checks"]:
            if check.get("outcome") == "info":
                flags = check.get("flags", {})
                text = "; ".join(
                    f"{k} " + " ".join(f"{n}:{'yes' if v else 'no'}"
                                       for n, v in sorted(
                                           flags[k].items(),
                                           key=lambda kv: int(kv[0])))
                    for k in sorted(flags))
                lines.append(f"  {check['name']}: {text}")
            else:
                detail = check.get("detail", "")
                suffix = f" ({detail})" if detail else ""
                lines.append(f"  {check['name']}: {check['outcome']}"
                             f"{suffix}")
        lines.append("")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def _range_text(values: list[int]) -> str:
    if len(values) == 1:
        return str(values[0])
    return f"{values[0]}..{values[-1]}"


# ---- entry point -----------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derlie",
        description="Exact homology, symmetric-group actions and stability "
                    "tables for derivation complexes of free graded Lie "
                    "algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    comp = sub.add_parser("compute", help="run a computation job")
    comp.add_argument("--model", required=True,
                      help="model file path or bundled model name")
    comp.add_argument("--mode", choices=["pointed", "boundary"],
                      default="pointed")
    comp.add_argument("--k", required=True, help="degree range, e.g. 1..2")
    comp.add_argument("--n", required=True, help="arity range, e.g. 1..4")
    comp.add_argument("--decompose", action="store_true",
                      help="decompose homology into irreducibles")
    comp.add_argument("--check-consistency", action="store_true")
    comp.add_argument("--check-generation", action="store_true")
    comp.add_argument("--check-pbw", action="store_true")
    comp.add_argument("--format", choices=["table", "json"],
                      default="table")
    comp.add_argument("--cache-dir", default=None)
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--max-dim", type=int, default=20000)
    comp.add_argument("--workers", type=int, default=1)
    comp.add_argument("--output", default=None,
                      help="write the report here instead of stdout")
    models = sub.add_parser("models", help="list bundled models")
    del models
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "models":
        for name in bundled_model_names():
            print(name)
        return EXIT_OK
    try:
        job = JobSpec(
            model_path=args.model,
            mode=Mode(args.mode),
            k_values=parse_range(args.k),
            n_values=parse_range(args.n),
            decompose=args.decompose,
            check_consistency=args.check_consistency,
            check_generation=args.check_generation,
            check_pbw=args.check_pbw,
            fmt=args.format,
            cache_dir=args.cache_dir,
            seed=args.seed,
            max_dim=args.max_dim,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.output:
        # Fail before any cell is computed; an existing report keeps its
        # bytes until the new one is written.
        try:
            if os.path.exists(args.output):
                open(args.output, "ab").close()
            else:
                open(args.output, "xb").close()
                os.remove(args.output)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    report, code = run(job)
    payload = emit_report(report, job.fmt)
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        except OSError as exc:  # the path changed while the job ran
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main())
