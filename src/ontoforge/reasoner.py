"""Polynomial classification for the EL fragment with disjointness.

The fragment covered: named classes, owl:Thing, owl:Nothing, intersections,
and existential restrictions, in subsumptions, equivalences, and pairwise
disjointness. A union at the top level of a subsumption's left-hand side is
decomposed into one subsumption per disjunct. Everything else (universal
restrictions, complements, remaining unions, and the property axioms) is
outside the fragment: those axioms are skipped and reported, never silently
dropped.

Classification runs in two stages:

1. `normalize` rewrites axioms into the four normal forms

       A ⊑ B      A1 ⊓ A2 ⊑ B      A ⊑ ∃r.B      ∃r.A ⊑ B

   where every letter is an atom: a named class, owl:Thing, owl:Nothing, or
   a fresh auxiliary name `_aux1`, `_aux2`, ... handed out in axiom order, so
   the output is deterministic for a given input sequence.

2. `Saturation` computes, for every atom C, the set S(C) of entailed atomic
   subsumers and the role edge relation R(r), as the least fixpoint of

       R1: D ∈ S(C), D ⊑ B             then B ∈ S(C)
       R2: D1, D2 ∈ S(C), D1 ⊓ D2 ⊑ B  then B ∈ S(C)
       R3: D ∈ S(C), D ⊑ ∃r.B          then (C, B) ∈ R(r)
       R4: (C, D) ∈ R(r), E ∈ S(D), ∃r.E ⊑ B   then B ∈ S(C)
       R⊥: (C, D) ∈ R(r), Nothing ∈ S(D)       then Nothing ∈ S(C)

   starting from S(C) = {C, owl:Thing}. The fixpoint is unique, so the result
   does not depend on axiom order. Every rule only adds, so `extend` with
   more axioms carries on from the fixpoint it has, and a trail of the
   additions lets `undo` take an extension back exactly.

`classify` glues the stages together and projects the result onto the named
classes of the input, which is what queries and reports consume. A
`Classifier` does the same for a base that probe blocks extend and undo.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import OntoforgeError
from .model import (
    And,
    AnnotationAssertion,
    Axiom,
    ClassExpression,
    Declaration,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    Import,
    Kind,
    Named,
    Not,
    Nothing,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Only,
    Or,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    Thing,
    TransitiveObjectProperty,
)

TOP = "owl:Thing"
BOT = "owl:Nothing"

_PROPERTY_AXIOMS = (
    ObjectPropertyDomain,
    ObjectPropertyRange,
    FunctionalObjectProperty,
    TransitiveObjectProperty,
    SubObjectPropertyOf,
)


class UnknownEntity(OntoforgeError):
    """A query named a class outside the classified signature."""


# --- normal forms ----------------------------------------------------------


@dataclass(frozen=True)
class AtomAtom:
    sub: str
    sup: str


@dataclass(frozen=True)
class ConjAtom:
    left1: str
    left2: str
    sup: str


@dataclass(frozen=True)
class AtomExists:
    sub: str
    role: str
    filler: str


@dataclass(frozen=True)
class ExistsAtom:
    role: str
    filler: str
    sup: str


NormalAxiom = AtomAtom | ConjAtom | AtomExists | ExistsAtom


@dataclass(frozen=True)
class SkippedAxiom:
    axiom: Axiom
    reason: str


@dataclass
class NormalizeResult:
    normal: list[NormalAxiom] = field(default_factory=list)
    skipped: list[SkippedAxiom] = field(default_factory=list)
    classes: set[str] = field(default_factory=set)
    roles: set[str] = field(default_factory=set)
    next_aux: int = 1  # the number the next auxiliary name would get


def _atom(ce: ClassExpression) -> str | None:
    if isinstance(ce, Named):
        return ce.entity.iri.value
    if isinstance(ce, Thing):
        return TOP
    if isinstance(ce, Nothing):
        return BOT
    return None


def _offending(ce: ClassExpression) -> str | None:
    """Name the first construct that falls outside the fragment, if any."""
    if isinstance(ce, Only):
        return "universal restriction"
    if isinstance(ce, Not):
        return "complement"
    if isinstance(ce, Or):
        return "union"
    if isinstance(ce, And):
        for op in ce.operands:
            bad = _offending(op)
            if bad:
                return bad
        return None
    if isinstance(ce, Some):
        return _offending(ce.filler)
    return None


class _Normalizer:
    def __init__(self, first_aux: int) -> None:
        self.result = NormalizeResult(next_aux=first_aux)

    def fresh(self) -> str:
        name = f"_aux{self.result.next_aux}"
        self.result.next_aux += 1
        return name

    def run(self, axioms) -> NormalizeResult:
        for axiom in axioms:
            self._axiom(axiom)
        return self.result

    def _axiom(self, axiom: Axiom) -> None:
        res = self.result
        if isinstance(axiom, Declaration):
            if axiom.entity.kind is Kind.CLASS:
                res.classes.add(axiom.entity.iri.value)
            elif axiom.entity.kind is Kind.OBJECT_PROPERTY:
                res.roles.add(axiom.entity.iri.value)
            return
        if isinstance(axiom, SubClassOf):
            self._sub(axiom.sub, axiom.sup, axiom)
            return
        if isinstance(axiom, EquivalentClasses):
            ops = axiom.operands
            for i, op in enumerate(ops):
                self._sub(op, ops[(i + 1) % len(ops)], axiom)
            return
        if isinstance(axiom, DisjointClasses):
            ops = [e.iri.value for e in axiom.operands]
            res.classes.update(ops)
            for i in range(len(ops)):
                for j in range(i + 1, len(ops)):
                    res.normal.append(ConjAtom(ops[i], ops[j], BOT))
            return
        if isinstance(axiom, (AnnotationAssertion, Import)):
            return
        if isinstance(axiom, _PROPERTY_AXIOMS):
            res.skipped.append(SkippedAxiom(axiom, f"{type(axiom).__name__} is outside the fragment"))
            return
        raise TypeError(f"not an axiom: {axiom!r}")

    def _sub(self, sub: ClassExpression, sup: ClassExpression, origin: Axiom) -> None:
        self._collect_signature(sub)
        self._collect_signature(sup)
        if isinstance(sub, Or):
            for disjunct in sub.operands:
                self._sub(disjunct, sup, origin)
            return
        bad = _offending(sub) or _offending(sup)
        if bad:
            self.result.skipped.append(SkippedAxiom(origin, f"{bad} is outside the fragment"))
            return
        self._emit(sub, sup)

    def _collect_signature(self, ce: ClassExpression) -> None:
        if isinstance(ce, Named):
            self.result.classes.add(ce.entity.iri.value)
        elif isinstance(ce, (And, Or)):
            for op in ce.operands:
                self._collect_signature(op)
        elif isinstance(ce, Not):
            self._collect_signature(ce.operand)
        elif isinstance(ce, (Some, Only)):
            self.result.roles.add(ce.property.iri.value)
            self._collect_signature(ce.filler)

    def _conjuncts(self, ce: ClassExpression, out: list[ClassExpression]) -> None:
        if isinstance(ce, And):
            for op in ce.operands:
                self._conjuncts(op, out)
        else:
            out.append(ce)

    def _lhs_atom(self, ce: ClassExpression) -> str:
        """An atom A with ce ⊑ A, naming ce when it is complex."""
        atom = _atom(ce)
        if atom is not None:
            return atom
        aux = self.fresh()
        self._emit_lhs(ce, aux)
        return aux

    def _rhs_atom(self, ce: ClassExpression) -> str:
        """An atom A with A ⊑ ce, naming ce when it is complex."""
        atom = _atom(ce)
        if atom is not None:
            return atom
        aux = self.fresh()
        self._emit_rhs(aux, ce)
        return aux

    def _emit(self, sub: ClassExpression, sup: ClassExpression) -> None:
        sup_atom = _atom(sup)
        if sup_atom is None:
            if isinstance(sup, And):
                for op in sup.operands:
                    self._emit(sub, op)
                return
            assert isinstance(sup, Some)
            filler = self._rhs_atom(sup.filler)
            self.result.normal.append(
                AtomExists(self._lhs_atom(sub), sup.property.iri.value, filler)
            )
            return
        self._emit_lhs(sub, sup_atom)

    def _emit_lhs(self, sub: ClassExpression, sup_atom: str) -> None:
        atom = _atom(sub)
        if atom is not None:
            self.result.normal.append(AtomAtom(atom, sup_atom))
            return
        if isinstance(sub, Some):
            filler = self._lhs_atom(sub.filler)
            self.result.normal.append(ExistsAtom(sub.property.iri.value, filler, sup_atom))
            return
        assert isinstance(sub, And)
        flat: list[ClassExpression] = []
        self._conjuncts(sub, flat)
        atoms = [self._lhs_atom(c) for c in flat]
        acc = atoms[0]
        for middle in atoms[1:-1]:
            aux = self.fresh()
            self.result.normal.append(ConjAtom(acc, middle, aux))
            acc = aux
        self.result.normal.append(ConjAtom(acc, atoms[-1], sup_atom))

    def _emit_rhs(self, sub_atom: str, sup: ClassExpression) -> None:
        if isinstance(sup, And):
            for op in sup.operands:
                atom = _atom(op)
                if atom is not None:
                    self.result.normal.append(AtomAtom(sub_atom, atom))
                else:
                    self._emit_rhs(sub_atom, op)
            return
        assert isinstance(sup, Some)
        filler = self._rhs_atom(sup.filler)
        self.result.normal.append(AtomExists(sub_atom, sup.property.iri.value, filler))


def normalize(axioms, first_aux: int = 1) -> NormalizeResult:
    """Rewrite axioms into normal forms, naming auxiliaries from _aux{first_aux} on."""
    return _Normalizer(first_aux).run(axioms)


# --- saturation ------------------------------------------------------------


class Saturation:
    """S and R of every normal axiom added so far, at the least fixpoint.

    From the first `mark()` on, every addition to S, R and the indexes is
    recorded on a trail; `undo(mark)` takes those made since mark back.
    """

    def __init__(self) -> None:
        self.S: dict[str, set[str]] = {}
        self.R: dict[str, set[tuple[str, str]]] = {}
        self.edges_by_target: dict[str, set[tuple[str, str]]] = {}
        self.subs_by_lhs: dict[str, list[str]] = {}
        self.conj_by_operand: dict[str, list[tuple[str, str]]] = {}
        self.exists_rhs_by_lhs: dict[str, list[tuple[str, str]]] = {}
        self.exists_lhs_by_key: dict[tuple[str, str], list[str]] = {}
        self._trail: list[tuple] | None = None  # (forget, item): forget(item) undoes one

    def mark(self) -> int:
        self._trail = [] if self._trail is None else self._trail
        return len(self._trail)

    def undo(self, mark: int) -> None:
        while len(self._trail) > mark:
            forget, item = self._trail.pop()
            forget(item)

    def extend(self, normal: list[NormalAxiom], atoms=()) -> None:
        """Add normal axioms and atoms, then saturate from the old fixpoint.

        A new atom starts from {itself, owl:Thing}. An old atom C re-fires
        ("s", C, D) for each trigger D in S(C): the left atom of a new A ⊑ B or
        A ⊑ ∃r.B, one operand of a new A1 ⊓ A2 ⊑ B, or the E of a new ∃r.E ⊑ B.
        """
        S, R, edges_by_target, trail = self.S, self.R, self.edges_by_target, self._trail
        subs_by_lhs, conj_by_operand = self.subs_by_lhs, self.conj_by_operand
        exists_rhs_by_lhs, exists_lhs_by_key = self.exists_rhs_by_lhs, self.exists_lhs_by_key
        universe: set[str] = set(atoms) | {TOP}
        triggers: set[str] = set()
        queue: deque[tuple] = deque()

        def entry(table: dict, key, make):
            value = table.get(key)
            if value is None:
                value = table[key] = make()
                if trail is not None:
                    trail.append((table.pop, key))
            return value

        def index(table: dict, key, value) -> None:
            entries = entry(table, key, list)
            entries.append(value)
            if trail is not None:
                trail.append((entries.pop, -1))

        for ax in normal:
            if isinstance(ax, AtomAtom):
                universe.update((ax.sub, ax.sup))
                index(subs_by_lhs, ax.sub, ax.sup)
                triggers.add(ax.sub)
            elif isinstance(ax, ConjAtom):
                universe.update((ax.left1, ax.left2, ax.sup))
                index(conj_by_operand, ax.left1, (ax.left2, ax.sup))
                index(conj_by_operand, ax.left2, (ax.left1, ax.sup))
                triggers.add(ax.left1)  # R2 needs both operands in S(C), so one suffices
            elif isinstance(ax, AtomExists):
                universe.update((ax.sub, ax.filler))
                index(exists_rhs_by_lhs, ax.sub, (ax.role, ax.filler))
                triggers.add(ax.sub)
            elif isinstance(ax, ExistsAtom):
                universe.update((ax.filler, ax.sup))
                index(exists_lhs_by_key, (ax.role, ax.filler), ax.sup)
                triggers.add(ax.filler)
            else:
                raise TypeError(f"not a normal axiom: {ax!r}")

        def add_sub(c: str, d: str) -> None:
            subsumers = S[c]
            if d not in subsumers:
                subsumers.add(d)
                queue.append(("s", c, d))
                if trail is not None:
                    trail.append((subsumers.remove, d))

        def add_edge(role: str, src: str, tgt: str) -> None:
            edges = entry(R, role, set)
            if (src, tgt) not in edges:
                edges.add((src, tgt))
                sources = entry(edges_by_target, tgt, set)
                sources.add((role, src))
                queue.append(("e", role, src, tgt))
                if trail is not None:
                    trail.append((edges.remove, (src, tgt)))
                    trail.append((sources.remove, (role, src)))

        for c, subsumers in S.items():
            for d in triggers.intersection(subsumers):
                queue.append(("s", c, d))
        for a in universe.difference(S):
            entry(S, a, set)
            add_sub(a, a)
            add_sub(a, TOP)

        while queue:
            event = queue.popleft()
            if event[0] == "s":
                _, c, d = event
                for sup in subs_by_lhs.get(d, ()):
                    add_sub(c, sup)
                for other, sup in conj_by_operand.get(d, ()):
                    if other in S[c]:
                        add_sub(c, sup)
                for role, filler in exists_rhs_by_lhs.get(d, ()):
                    add_edge(role, c, filler)
                for role, src in tuple(edges_by_target.get(c, ())):
                    for sup in exists_lhs_by_key.get((role, d), ()):
                        add_sub(src, sup)
                    if d == BOT:
                        add_sub(src, BOT)
            else:
                _, role, src, tgt = event
                for d in S[tgt].copy():
                    for sup in exists_lhs_by_key.get((role, d), ()):
                        add_sub(src, sup)
                if BOT in S[tgt]:
                    add_sub(src, BOT)


def saturate(normal: list[NormalAxiom], atoms=()) -> tuple[dict, dict]:
    """(S, R) of a fresh `Saturation` extended once with the given axioms."""
    engine = Saturation()
    engine.extend(normal, atoms)
    return engine.S, engine.R


# --- the classified view ---------------------------------------------------


@dataclass(frozen=True)
class Taxonomy:
    """Saturation projected onto named classes."""

    subsumers: dict[str, frozenset[str]]
    role_edges: dict[str, frozenset[tuple[str, str]]]
    unsatisfiable: frozenset[str]
    skipped: tuple[SkippedAxiom, ...]

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


@dataclass(frozen=True)
class CoherenceReport:
    coherent: bool
    unsatisfiable: tuple[str, ...]


def _project(S, R, classes, skipped) -> Taxonomy:
    named = {TOP, BOT}.union(classes)
    subsumers = {c: frozenset(S[c] & named) for c in classes}
    role_edges = {
        role: frozenset((a, b) for a, b in pairs if a in named and b in named)
        for role, pairs in R.items()
    }
    role_edges = {role: pairs for role, pairs in role_edges.items() if pairs}
    unsat = frozenset(c for c in classes if BOT in S[c])
    return Taxonomy(subsumers, role_edges, unsat, tuple(skipped))


def classify(axioms) -> Taxonomy:
    """Normalize, saturate, and project onto the named classes."""
    norm = normalize(axioms)
    S, R = saturate(norm.normal, norm.classes)
    return _project(S, R, norm.classes, norm.skipped)


class Classifier:
    """A classification that axioms can be added to and taken back from.

    Its taxonomy equals `classify` of every axiom added and not undone.
    """

    def __init__(self, axioms) -> None:
        self.saturation = Saturation()
        self._classes: frozenset[str] = frozenset()
        self._skipped: tuple[SkippedAxiom, ...] = ()
        self._next_aux = 1  # carries on across undo, so auxiliary names never repeat
        self._taxonomy: Taxonomy | None = None
        self.add(axioms)

    def add(self, axioms) -> None:
        norm = normalize(axioms, self._next_aux)
        self._next_aux = norm.next_aux
        self._classes |= norm.classes
        self._skipped += tuple(norm.skipped)
        self.saturation.extend(norm.normal, norm.classes)
        self._taxonomy = None

    def mark(self) -> tuple:
        return self.saturation.mark(), self._classes, self._skipped, self._taxonomy

    def undo(self, mark: tuple) -> None:
        at, self._classes, self._skipped, self._taxonomy = mark
        self.saturation.undo(at)

    def taxonomy(self) -> Taxonomy:
        if self._taxonomy is None:
            sat = self.saturation
            self._taxonomy = _project(sat.S, sat.R, self._classes, self._skipped)
        return self._taxonomy


def _lookup(taxonomy: Taxonomy, entity: Entity) -> str:
    key = entity.iri.value
    if key not in taxonomy.subsumers:
        raise UnknownEntity(f"<{key}> is not a named class of the classified ontology")
    return key


def inferred_superclass(
    taxonomy: Taxonomy, sub: Entity, sup: Entity, reflexive: bool = False
) -> bool:
    """Whether sub ⊑ sup is entailed; reflexive pairs count only when asked."""
    a = _lookup(taxonomy, sub)
    b = _lookup(taxonomy, sup)
    if a == b and not reflexive:
        return False
    return b in taxonomy.subsumers[a]


def coherence_report(taxonomy: Taxonomy) -> CoherenceReport:
    unsat = tuple(sorted(taxonomy.unsatisfiable))
    return CoherenceReport(not unsat, unsat)


def direct_superclasses(taxonomy: Taxonomy, name: str) -> list[str]:
    """Named strict superclasses with nothing strictly between, sorted."""
    if name not in taxonomy.subsumers:
        raise UnknownEntity(f"<{name}> is not a named class of the classified ontology")
    subsumers = taxonomy.subsumers
    strict = {
        d
        for d in subsumers[name]
        if d not in (name, TOP, BOT) and name not in subsumers.get(d, frozenset())
    }
    direct = [
        d
        for d in strict
        if not any(
            e != d and d in subsumers.get(e, frozenset()) and e not in subsumers.get(d, frozenset())
            for e in strict
        )
    ]
    return sorted(direct)
