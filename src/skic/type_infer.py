"""Energy-based probabilistic type inference over a four-tag type space.

Each untyped leaf occurrence of a term (variables the context does not
type, plus integer literals, which may be Int or Real) becomes an
inference variable.  Usage sites emit weighted factors, and a term's
constraints are the tuple of them; each `Factor` checks on construction
that its clique is nonempty and its weight positive.  An assignment's
energy is the weighted count of violated factors, and the posterior is
the softmax of negated energies over the full enumerated candidate set.
The pipeline reads only the MAP assignment, which `map_by_elimination`
computes by min-sum variable elimination without enumerating; the
enumerative `posterior` and `map_assignment` stay as the public API and
the reference it is tested against.  The pipeline's MAP assignment
never holds Real: its fixed slots are only Bool or Func, so mapping every
Real to Int never raises the energy, Int sorts first, and the pipeline
never writes `#addR`.

Factor rules and weights:
  - arithmetic operands agree on a numeric tag   (weight 1.0 per pair)
  - equality operands agree on a tag             (weight 1.0)
  - conditional condition is Bool                (weight 2.0)
  - occurrences bound to the same name agree     (weight 4.0)

Names typed by the context environment are fixed: they produce no
inference variable and their tag is baked into any factor they touch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Union

from . import lambda_ir
from .lambda_ir import App, BoolLit, Comb, IntLit, Lam, Prim, Program, Term, Var, spine

ARITH_FACTOR_WEIGHT = 1.0
EQ_FACTOR_WEIGHT = 1.0
COND_FACTOR_WEIGHT = 2.0
BINDING_FACTOR_WEIGHT = 4.0

MAX_ENUM_VARIABLES = 8


class TypeInferError(Exception):
    pass


class TooManyVariablesError(TypeInferError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} inference variables exceed the enumeration guard ({limit})")
        self.count = count
        self.limit = limit


class MissingVariableError(TypeInferError):
    def __init__(self, name: str):
        super().__init__(f"assignment does not cover variable {name!r}")
        self.name = name


class EmptyPosteriorError(TypeInferError):
    pass


class TypeTag(Enum):
    """Closed type space; declaration order is the tie-breaking order."""

    INT = 0
    REAL = 1
    BOOL = 2
    FUNC = 3


NUMERIC_TAGS = (TypeTag.INT, TypeTag.REAL)


@dataclass(frozen=True)
class Factor:
    kind: str  # numeric | agree | bool_cond | binding
    clique: tuple[str, ...]
    weight: float
    fixed: tuple[TypeTag, ...] = ()

    def __post_init__(self):
        if not self.clique:
            raise ValueError("factor clique must be nonempty")
        if self.weight <= 0:
            raise ValueError("factor weight must be positive")

    def violated(self, assignment: dict[str, TypeTag]) -> bool:
        for v in self.clique:
            if v not in assignment:
                raise MissingVariableError(v)
        return _violates(self.kind, tuple(assignment[v] for v in self.clique) + self.fixed)


def _violates(kind: str, tags: tuple[TypeTag, ...]) -> bool:
    """The violation rule of a factor of `kind` on its clique's tags
    followed by its fixed ones."""
    if kind == "bool_cond":
        return tags[0] is not TypeTag.BOOL
    same = all(t is tags[0] for t in tags)
    if kind == "numeric":
        return not (same and tags[0] in NUMERIC_TAGS)
    return not same  # agree / binding


@dataclass(frozen=True)
class PosteriorEntry:
    assignment: dict[str, TypeTag]
    energy: float
    probability: float


@dataclass(frozen=True)
class TypePosterior:
    variables: tuple[str, ...]
    support: tuple[PosteriorEntry, ...]


# --- constraint extraction ----------------------------------------------


# a leaf occurrence's slot: its inference variable's name, or its fixed tag
_Slot = Union[str, TypeTag]


class _Extractor:
    def __init__(self, env: Optional[Mapping[str, TypeTag]]):
        self.env = env or {}  # known name types; None binds none
        self.slots: list[_Slot] = []  # one per leaf occurrence, left to right
        self.groups: dict[tuple, list[str]] = {}
        self.factors: list[Factor] = []
        self.lam_counter = 0

    def walk(self, t: Term, binders: dict[str, int]) -> Optional[_Slot]:
        """Record `t`'s leaves and usage sites; a leaf's slot, None for a
        compound term."""
        if isinstance(t, Lam):
            self.lam_counter += 1
            self.walk(t.body, {**binders, t.param: self.lam_counter})
            return None
        if isinstance(t, App):
            head, args = spine(t)
            self.walk(head, binders)
            operand_slots = [self.walk(a, binders) for a in args]
            if isinstance(head, Prim):
                self._emit_site(head.op, operand_slots)
            return None
        match t:
            case Var(name) if name in binders:
                slot: _Slot = self._add_variable(name, group=("lam", name, binders[name]))
            case Var(name) if name in self.env:
                slot = self.env[name]
            case Var(name):
                slot = self._add_variable(name, group=("free", name))
            case IntLit(v):
                slot = self._add_variable(str(v), group=None)
            case BoolLit():
                slot = TypeTag.BOOL
            case Prim() | Comb():
                slot = TypeTag.FUNC
            case _:
                raise TypeError(f"not a Term: {t!r}")
        self.slots.append(slot)
        return slot

    def _add_variable(self, display: str, group: Optional[tuple]) -> str:
        name = f"{display}@{len(self.slots)}"  # numbered by leaf index
        if group is not None:
            self.groups.setdefault(group, []).append(name)
        return name

    def _emit_site(self, op: str, operand_slots: list[Optional[_Slot]]) -> None:
        if op == "if" and len(operand_slots) >= 3 and isinstance(operand_slots[0], str):
            self.factors.append(Factor("bool_cond", (operand_slots[0],), COND_FACTOR_WEIGHT))
        if op not in ("add", "sub", "mul", "eq") or len(operand_slots) < 2:
            return
        clique = tuple(s for s in operand_slots[:2] if isinstance(s, str))
        fixed = tuple(s for s in operand_slots[:2] if isinstance(s, TypeTag))
        # a numeric factor holds one operand to a numeric tag; agreement
        # with a single operand is vacuous
        if clique and (op != "eq" or len(clique) + len(fixed) == 2):
            kind, weight = ("agree", EQ_FACTOR_WEIGHT) if op == "eq" else ("numeric", ARITH_FACTOR_WEIGHT)
            self.factors.append(Factor(kind, clique, weight, fixed))


def _constraints(
    t: Term, env: Optional[Mapping[str, TypeTag]]
) -> tuple[list[_Slot], list[str], tuple[Factor, ...]]:
    """One walk over `t`: every leaf's slot in leaf order, then
    `build_constraints`' variables and factors."""
    ex = _Extractor(env)
    ex.walk(t, {})
    binding = [
        Factor("binding", pair, BINDING_FACTOR_WEIGHT)
        for members in ex.groups.values()
        for pair in zip(members, members[1:])
    ]
    return ex.slots, [s for s in ex.slots if isinstance(s, str)], tuple(ex.factors + binding)


def build_constraints(t: Term, env: Optional[Mapping[str, TypeTag]] = None) -> tuple[list[str], tuple[Factor, ...]]:
    """Extract inference variables and factors from a term.

    Variables are named `<display>@<leaf-index>` in left-to-right leaf
    order.
    """
    return _constraints(t, env)[1:]


# --- energy and posterior -------------------------------------------------


def energy(assignment: dict[str, TypeTag], factors: tuple[Factor, ...]) -> float:
    """Weighted count of violated factors; 0 iff every factor holds."""
    return sum(f.weight for f in factors if f.violated(assignment))


def posterior_from_energies(
    assignments: list[dict[str, TypeTag]], energies: list[float], variables: tuple[str, ...]
) -> TypePosterior:
    """Softmax of negated energies, stabilized by min-energy subtraction."""
    if not assignments:
        raise EmptyPosteriorError("no candidate assignments")
    e_min = min(energies)
    weights = [math.exp(-(e - e_min)) for e in energies]
    z = sum(weights)
    support = tuple(
        PosteriorEntry(assignment=a, energy=e, probability=w / z)
        for a, e, w in zip(assignments, energies, weights)
    )
    return TypePosterior(variables=variables, support=support)


def posterior(
    factors: tuple[Factor, ...], variables: list[str], max_variables: int = MAX_ENUM_VARIABLES
) -> TypePosterior:
    """Exact posterior over all |tags|^n assignments (guarded enumeration)."""
    n = len(variables)
    if n > max_variables:
        raise TooManyVariablesError(n, max_variables)
    assignments = [
        dict(zip(variables, combo)) for combo in itertools.product(TypeTag, repeat=n)
    ]
    energies = [energy(a, factors) for a in assignments]
    return posterior_from_energies(assignments, energies, tuple(variables))


def map_assignment(p: TypePosterior) -> dict[str, TypeTag]:
    """Highest-probability assignment; ties break lexicographically."""
    if not p.support:
        raise EmptyPosteriorError("empty posterior support")

    def key(entry: PosteriorEntry):
        lex = tuple(entry.assignment[v].value for v in p.variables)
        return (-entry.probability, lex)

    return min(p.support, key=key).assignment


@functools.cache
def _violation_pattern(kind: str, fixed: tuple[TypeTag, ...], positions: tuple[int, ...], size: int) -> tuple[bool, ...]:
    """`_violates` of a factor whose clique reads `positions` of a
    `size`-variable scope, for each assignment of the scope in code
    order; shared by every factor of that shape."""
    return tuple(
        _violates(kind, tuple(key[p] for p in positions) + fixed)
        for key in itertools.product(TypeTag, repeat=size)
    )


def _factor_table(f: Factor, scope: tuple[str, ...]) -> list[float]:
    """`f`'s energy on each assignment of `scope`, in code order."""
    pattern = _violation_pattern(f.kind, f.fixed, tuple(map(scope.index, f.clique)), len(scope))
    return [f.weight if bad else 0.0 for bad in pattern]


def map_by_elimination(factors: tuple[Factor, ...], variables: list[str]) -> Optional[dict[str, TypeTag]]:
    """`map_assignment(posterior(factors, variables))` by min-sum variable
    elimination; None when some step would span more than
    MAX_ENUM_VARIABLES variables, which no item of at most that many
    variables can reach.

    Variables are eliminated last to first.  Each step keeps, for every
    assignment of the variable's remaining neighbours, the least energy
    and the first tag reaching it; decoding first to last then fixes
    every neighbour before the variable, so the result is the
    lexicographically least min-energy assignment.  The steps' scopes
    are found before any table is built, so a step never costs more than
    the |tags|^MAX_ENUM_VARIABLES of the largest guarded enumeration.

    A table is a flat list indexed by the code of its scope's
    assignment: the tags' values as base-4 digits, the first variable's
    most significant (`itertools.product` order).  Factors of one shape
    share one cached violation pattern.  A step projects the codes of
    the neighbours followed by the variable onto each touching table, so
    each block of four holds the variable's four tags.
    """
    order = {v: i for i, v in enumerate(variables)}
    for f in factors:
        for v in f.clique:
            if v not in order:
                raise MissingVariableError(v)
    factor_scopes = [tuple(sorted(set(f.clique), key=order.__getitem__)) for f in factors]
    scopes = factor_scopes
    steps: list[tuple[str, tuple[str, ...]]] = []  # (variable, its remaining neighbours)
    for v in reversed(variables):
        span = {u for s in scopes if v in s for u in s} | {v}
        if len(span) > MAX_ENUM_VARIABLES:
            return None
        rest = tuple(sorted(span - {v}, key=order.__getitem__))
        scopes = [s for s in scopes if v not in s] + [rest]
        steps.append((v, rest))

    tables = [(scope, _factor_table(f, scope)) for f, scope in zip(factors, factor_scopes)]
    choices: dict[str, tuple[tuple[str, ...], list[int]]] = {}
    for v, rest in steps:
        full = rest + (v,)
        energies = [0] * 4 ** len(full)
        for scope, table in tables:
            if v in scope:
                proj = [0]  # the table's code at each code of `full`
                for u in full:
                    stride = 4 ** (len(scope) - 1 - scope.index(u)) if u in scope else 0
                    proj = [c + stride * t for c in proj for t in range(4)]
                energies = [e + table[c] for e, c in zip(energies, proj)]
        tables = [(scope, table) for scope, table in tables if v not in scope]
        blocks = [energies[i:i + 4] for i in range(0, len(energies), 4)]
        least = [*map(min, blocks)]
        tables.append((rest, least))
        choices[v] = (rest, [*map(list.index, blocks, least)])  # the first minimum is the least tag
    codes: dict[str, int] = {}
    for v in variables:
        rest, choice = choices[v]
        codes[v] = choice[functools.reduce(lambda code, u: 4 * code + codes[u], rest, 0)]
    return {v: TypeTag(codes[v]) for v in variables}


# --- operator specialization ----------------------------------------------


def specialize_operators(
    t: Term, assignment: dict[str, TypeTag], env: Optional[Mapping[str, TypeTag]] = None
) -> Term:
    """Rewrite #add to #addZ / #addR where both operands resolve Int / Real.

    Operand tags come from the assignment for inferred leaves, fixed
    slots otherwise; compound operands derive a tag structurally
    (arithmetic results, #eq results, same-tag conditional branches).
    Anything unresolved leaves the operator unchanged.
    """
    return _rewrite(t, _constraints(t, env)[0], assignment)


def _rewrite(t: Term, leaf_slots: list[_Slot], assignment: dict[str, TypeTag]) -> Term:
    """`specialize_operators` of `t`, given its leaves' slots from its
    constraint walk."""
    slots = iter(leaf_slots)  # `go` reaches the leaves in the walk's order

    def go(node: Term) -> tuple[Term, Optional[TypeTag]]:
        if isinstance(node, Lam):
            return Lam(node.param, go(node.body)[0]), TypeTag.FUNC
        if not isinstance(node, App):
            slot = next(slots)
            return node, slot if isinstance(slot, TypeTag) else assignment.get(slot)
        head, args = spine(node)
        new_head, _ = go(head)
        new_args, tags = zip(*(go(a) for a in args))
        derived: Optional[TypeTag] = None
        if isinstance(head, Prim):
            if head.op in lambda_ir.ARITH_OPS and len(args) == 2:
                if tags[0] is tags[1] and tags[0] in NUMERIC_TAGS:
                    derived = tags[0]
                    if head.op == "add":
                        new_head = Prim("addZ" if derived is TypeTag.INT else "addR")
            elif head.op == "eq" and len(args) == 2:
                derived = TypeTag.BOOL
            elif head.op == "if" and len(args) == 3:
                derived = tags[1] if tags[1] is tags[2] else None
        return lambda_ir.apply_spine(new_head, *new_args), derived

    rewritten, _ = go(t)
    return rewritten


def specialize_program(prog: Program) -> tuple[Program, dict[str, dict[str, str]]]:
    """MAP-specialize each definition and main under an environment that
    types earlier definition names as functions.

    The summary maps each item's label ("main" for main) to its MAP tag
    names, found by `map_by_elimination`; an item whose elimination
    would take a step spanning more than MAX_ENUM_VARIABLES variables
    is left as it is and noted under "_skipped".
    """
    summary: dict[str, dict[str, str]] = {}
    items: list[tuple[Optional[str], Term]] = []
    for i, (name, body) in enumerate(prog.items()):
        label = name or "main"
        env = {dep: TypeTag.FUNC for dep, _ in prog.defs[:i]}
        slots, variables, factors = _constraints(body, env)  # the item's one walk
        assignment = map_by_elimination(factors, variables)
        if assignment is None:
            summary[label] = {
                "_skipped": f"{len(variables)} variables: an elimination step spans more than {MAX_ENUM_VARIABLES}"
            }
        else:
            summary[label] = {v: assignment[v].name for v in variables}
            body = _rewrite(body, slots, assignment)
        items.append((name, body))
    return Program.of_items(items), summary
