"""Seeded source trees for the benchmark, and the output each command must give.

Every workload is a directory of `.ont` (and `.ofn`) files written from a
seed. The same seed always gives the same bytes. Next to the files, the
generator keeps what it told the ontology: named superclasses, existential
edges and class definitions. `Hierarchy.close` turns those told facts into
the subsumer sets that the CLI's `classify` and `test` must agree with.

No code of the package under test runs here. The expected taxonomy is the
generator's own bookkeeping, checked against the brute-force oracle in
`tests/el_oracle.py` at small sizes by `bench/test_gen.py`.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

THING = "owl:Thing"

WORDS = (
    "cell", "part", "membrane", "binding", "transport", "signal", "growth",
    "protein", "complex", "nuclear", "outer", "inner", "process", "activity",
    "regulation", "response", "organ", "tissue", "layer", "receptor", "factor",
    "channel", "vesicle", "fiber", "matrix", "domain", "motor", "neural",
)
# Label separators and what label_to_identifier turns each into.
SEPARATORS = ((" ", "_"), ("-", "-"), (", ", "_"), ("  ", "_"), (" / ", "_"))


class Hierarchy:
    """Told facts about named classes, keyed by IRI.

    The ontologies generated here stay inside a small fragment: named
    superclasses, `X ⊑ ∃r.Y` with named Y, definitions `D ≡ A ⊓ ∃r.B` with
    named A and B, and disjoint sibling groups that no generated class ever
    falls under twice. For that fragment the subsumers of X are the least
    sets with: X itself; the subsumers of each told superclass; and every D
    whose A is a subsumer of X while some edge (r, Y) inherited by X has B
    among the subsumers of Y.
    """

    def __init__(self) -> None:
        self.order: list[str] = []
        self.sups: dict[str, list[str]] = {}
        self.exists: dict[str, list[tuple[str, str]]] = {}
        self.defs: dict[str, tuple[str, str, str]] = {}
        self.defs_by_a: dict[str, list[str]] = {}
        self.disjoint: list[tuple[str, ...]] = []
        self.group_of: dict[str, list[int]] = {}

    def add(self, iri: str, sups=(), exists=()) -> None:
        if iri not in self.sups:
            self.order.append(iri)
            self.sups[iri] = []
            self.exists[iri] = []
        self.sups[iri].extend(sups)
        self.exists[iri].extend(exists)

    def define(self, iri: str, a: str, role: str, b: str) -> None:
        self.add(iri, [a], [(role, b)])
        self.defs[iri] = (a, role, b)
        self.defs_by_a.setdefault(a, []).append(iri)

    def close(self) -> dict[str, set[str]]:
        """Named subsumers of every class (owl:Thing left implicit).

        A worklist over "z joins S(x)": each new member brings its told
        superclasses and edges, and a definition fires once x has both its A
        and an edge (r, y) with B in S(y). `keys[x]` holds the (r, b) pairs
        reachable over x's edges; `edges_into[y]` the (x, r) edges into y.
        """
        S: dict[str, set[str]] = {x: set() for x in self.order}
        keys: dict[str, set[tuple[str, str]]] = {x: set() for x in self.order}
        edges_into: dict[str, set[tuple[str, str]]] = {}
        defs_by_key: dict[tuple[str, str], list[str]] = {}
        for d, (_, role, b) in self.defs.items():
            defs_by_key.setdefault((role, b), []).append(d)
        queue: deque[tuple[str, str]] = deque()

        def add(x: str, z: str) -> None:
            if z not in S[x]:
                S[x].add(z)
                queue.append((x, z))

        def add_key(x: str, role: str, b: str) -> None:
            if (role, b) not in keys[x]:
                keys[x].add((role, b))
                for d in defs_by_key.get((role, b), ()):
                    if self.defs[d][0] in S[x]:
                        add(x, d)

        for x in self.order:
            add(x, x)
        while queue:
            x, z = queue.popleft()
            for p in self.sups[z]:
                add(x, p)
            for role, y in self.exists[z]:
                into = edges_into.setdefault(y, set())
                if (x, role) not in into:
                    into.add((x, role))
                    for b in list(S[y]):
                        add_key(x, role, b)
            for d in self.defs_by_a.get(z, ()):
                _, role, b = self.defs[d]
                if (role, b) in keys[x]:
                    add(x, d)
            for w, role in list(edges_into.get(x, ())):
                add_key(w, role, z)
        for s in S.values():
            if self.clash(s):
                raise AssertionError("generated ontology has an unsatisfiable class")
        return S

    def add_disjoint(self, members) -> None:
        for m in members:
            self.group_of.setdefault(m, []).append(len(self.disjoint))
        self.disjoint.append(tuple(members))

    def clash(self, s: set[str]) -> bool:
        """Whether s holds two members of one disjoint group."""
        seen: set[int] = set()
        for z in s:
            for g in self.group_of.get(z, ()):
                if g in seen:
                    return True
                seen.add(g)
        return False


def direct_superclasses(S: dict[str, set[str]], x: str) -> list[str]:
    """Strict subsumers with no strict subsumer of x strictly below them."""
    strict = [d for d in S[x] if d != x and x not in S[d]]
    return sorted(
        d for d in strict if not any(e != d and d in S[e] and e not in S[d] for e in strict)
    )


def classify_stdout(S, printed, curie) -> str:
    lines = []
    for x in printed:
        supers = [curie(d) for d in direct_superclasses(S, x)] or [THING]
        lines.append(f"{curie(x)}\t{', '.join(supers)}")
    return "".join(line + "\n" for line in sorted(lines))


@dataclass
class Tree:
    """One generated workload: files to write and what the CLI must print."""

    ns: str
    files: dict[str, str]
    hierarchy: Hierarchy
    printed: list[str]
    prefixes: dict[str, str]
    own_axioms: int
    tests: list["TestExpectation"]
    # identifier -> IRI for every external class interned by label
    interned: dict[str, str] = field(default_factory=dict)
    # (child IRI, parent IRI) for every told subclass edge of the external file
    external_parents: set[tuple[str, str]] = field(default_factory=set)
    external_file: str | None = None

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def curie(self, iri: str) -> str:
        for label, base in self.prefixes.items():
            if iri.startswith(base):
                return f"{label}:{iri[len(base):]}"
        return f"<{iri}>"

    def expected(self, src: Path, out: Path, S: dict[str, set[str]]) -> dict[str, tuple]:
        """Command name -> (argv, exit code, stdout)."""
        common = ["--src", str(src), "--ns", self.ns]
        stem = self.ns.rpartition(".")[2]
        n_assert = sum(len(t.assertions) for t in self.tests)
        tap = []
        failures = 0
        for number, test in enumerate(self.tests, start=1):
            failing = [i for i, a in enumerate(test.assertions, start=1) if not a.holds]
            failures += len(failing)
            if failing:
                line = test.assertions[failing[0] - 1].line
                where = f"{src / (self.ns.replace('.', '/') + '.ont')}:{line}"
                tap.append(f"not ok {number} {test.name} (assertion {failing[0]} at {where})")
            else:
                tap.append(f"ok {number} {test.name}")
        tap.append(f"# {len(self.tests)} tests, {n_assert} assertions, {failures} failures")
        return {
            "check": (
                ["check", *common],
                0,
                f"{self.ns}: {self.own_axioms} axioms, {len(self.tests)} tests\n",
            ),
            "classify": (["classify", *common], 0, classify_stdout(S, self.printed, self.curie)),
            "compile": (
                ["compile", *common, "--out", str(out)],
                0,
                f"{out / (stem + '.omn')}\n{out / (stem + '.ofn')}\n",
            ),
            "test": (["test", *common], 1 if failures else 0, "".join(t + "\n" for t in tap)),
        }


@dataclass
class Assertion:
    text: str
    holds: bool
    line: int = 0


@dataclass
class TestExpectation:
    name: str
    assertions: list[Assertion]


class _Source:
    """Lines of one .ont file, with the line number of each appended form."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, text: str) -> int:
        line = len(self.lines) + 1
        self.lines.extend(text.split("\n"))
        return line

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_tests(src: _Source, tests: list[TestExpectation]) -> None:
    for test in tests:
        src.add(f"(deftest {test.name}")
        for a in test.assertions:
            a.line = src.add(f"  (is {a.text})")
        src.lines[-1] += ")"


# --- ingest-forest ------------------------------------------------------------

FOREST_BASE = "https://example.org/forest#"
HOST_BASE = "https://example.org/host#"


def _label(rng: random.Random, i: int) -> tuple[str, str]:
    words = [rng.choice(WORDS) for _ in range(rng.randint(1, 3))] + [str(i)]
    label, ident = words[0], words[0]
    for w in words[1:]:
        sep, mapped = rng.choice(SEPARATORS)
        label += sep + w
        ident += mapped + w
    return label, ident


def forest_tree(seed: int, n_forest: int = 4000, n_local: int = 200) -> Tree:
    """A host namespace interning a labelled OFN forest with parent(i) = i // 3."""
    rng = random.Random(f"ingest-forest:{seed}")
    lines = [
        "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)",
        "Prefix(rdfs:=<http://www.w3.org/2000/01/rdf-schema#>)",
        f"Prefix(f:=<{FOREST_BASE}>)",
        f"Ontology(<{FOREST_BASE}>",
    ]
    idents: list[str] = []
    parents = set()
    for i in range(n_forest):
        label, ident = _label(rng, i)
        idents.append(ident)
        lines.append(f"Declaration(Class(f:N{i}))")
        if i > 0:
            lines.append(f"SubClassOf(f:N{i} f:N{i // 3})")
            parents.add((f"{FOREST_BASE}N{i}", f"{FOREST_BASE}N{i // 3}"))
        lines.append(f'AnnotationAssertion(rdfs:label f:N{i} "{label}"@en)')
    lines.append(")")

    h = Hierarchy()
    src = _Source()
    src.add(f'(defontology host :iri "{HOST_BASE}" :prefix "host")')
    src.add('(read-external "forest.ofn" :naming :label)')
    src.add("(defoproperty rel)")
    axioms = 1
    used: set[int] = set()
    for k in range(n_local):
        iri = f"{HOST_BASE}L{k}"
        picks = rng.sample(range(n_forest), rng.randint(1, 2))
        used.update(picks)
        sups = [f"{FOREST_BASE}N{i}" for i in picks]
        refs = [idents[i] for i in picks]
        if k and rng.random() < 0.3:
            j = rng.randrange(k)
            sups.append(f"{HOST_BASE}L{j}")
            refs.append(f"L{j}")
        exists = []
        if rng.random() < 0.3:
            i = rng.randrange(n_forest)
            used.add(i)
            exists.append(("rel", f"{FOREST_BASE}N{i}"))
            refs.append(f"(owlsome rel {idents[i]})")
        h.add(iri, sups, exists)
        src.add(f"(defclass L{k} :subclass {' '.join(refs)})")
        axioms += 1 + len(refs)
    # A small pattern block so the DSL front end is not idle on this workload.
    src.add("(as-disjoint-subclasses L0 (defclass Left) (defclass Right))")
    for name in ("Left", "Right"):
        h.add(f"{HOST_BASE}{name}", [f"{HOST_BASE}L0"])
    h.add_disjoint((f"{HOST_BASE}Left", f"{HOST_BASE}Right"))
    axioms += 2 + 2 + 1
    for i in used:
        h.add(f"{FOREST_BASE}N{i}")

    # L1's first told superclass is a forest class, which has no subsumers
    # here: read-external binds names but does not copy the forest's axioms.
    n1 = int(h.sups[f"{HOST_BASE}L1"][0][len(FOREST_BASE) + 1:])
    tests = [
        TestExpectation(
            "Interned",
            [
                Assertion(f"(isuperclass? L1 {idents[n1]})", True),
                Assertion(f"(not (isuperclass? {idents[n1]} L1))", True),
                Assertion(
                    '(not (with-probe-entities [(p (owlclass "probe_0" :subclass Left Right))]'
                    " (coherent?)))",
                    True,
                ),
            ],
        )
    ]
    _emit_tests(src, tests)
    printed = [x for x in h.order if x.startswith(HOST_BASE)]
    return Tree(
        ns="host",
        files={"host.ont": src.text(), "forest.ofn": "\n".join(lines) + "\n"},
        hierarchy=h,
        printed=printed,
        prefixes={"host": HOST_BASE, "forest": FOREST_BASE},
        own_axioms=axioms,
        tests=tests,
        interned={ident: f"{FOREST_BASE}N{i}" for i, ident in enumerate(idents)},
        external_parents=parents,
        external_file="forest.ofn",
    )


# --- build-dense and probe-suite ----------------------------------------------

CORE_BASE = "https://example.org/dense/core#"
MAIN_BASE = "https://example.org/dense/main#"
UNITS_BASE = "https://example.org/units#"
ROLES = ("r0", "r1", "r2")
GRADES = ("Low", "Mid", "High")


@dataclass
class _Node:
    iri: str
    ns: str
    name: str
    parent: int | None


def _units_text(rng: random.Random, n: int) -> str:
    lines = [f"Prefix(u:=<{UNITS_BASE}>)", f"Ontology(<{UNITS_BASE}>"]
    for i in range(n):
        lines.append(f"Declaration(Class(u:Unit{i}))")
        if i:
            lines.append(f"SubClassOf(u:Unit{i} u:Unit{rng.randrange(i)})")
    lines.append(")")
    return "\n".join(lines) + "\n"


def dense_tree(
    seed: int,
    n_classes: int = 4000,
    n_probes: int = 1,
    n_plain: int = 4,
    failing: bool = False,
    name: str = "build-dense",
) -> Tree:
    """Two namespaces (core, main joined by `use`) built from every DSL pattern.

    A tree of about 85% of the classes is laid out breadth first with one to
    three children per parent in `as-disjoint-subclasses` blocks; the upper
    fifth lives in `core`, the rest in `main`, partly inside `with-suffix`
    blocks. About half the tree classes carry one existential restriction.
    `main` adds template-stamped classes and defined classes
    `D ≡ A ⊓ ∃r.B`, each planted so that a chosen class X falls under it.
    """
    rng = random.Random(f"{name}:{seed}")
    h = Hierarchy()
    n_tree = max(4, int(n_classes * 0.85))
    n_tmpl = max(1, int(n_classes * 0.08))
    n_def = max(1, n_classes - n_tree - n_tmpl)

    core_refs: dict[str, str] = {}
    main_refs: dict[str, str] = {}

    def ref(iri: str, ns: str) -> str:
        if ns == "core":
            return core_refs[iri]
        return main_refs.get(iri) or "core/" + core_refs[iri]

    # Roles and the value partition live in core.
    for role in ROLES:
        core_refs[CORE_BASE + role] = role
    core_refs[CORE_BASE + "hasGrade"] = "hasGrade"
    h.add(CORE_BASE + "Grade")
    for g in GRADES:
        core_refs[CORE_BASE + g] = g
        h.add(CORE_BASE + g, [CORE_BASE + "Grade"])
    core_refs[CORE_BASE + "Grade"] = "Grade"
    h.add_disjoint([CORE_BASE + g for g in GRADES])

    # Breadth-first tree: blocks[k] = (parent index, child indices).
    nodes: list[_Node] = [_Node(CORE_BASE + "C0", "core", "C0", None)]
    blocks: list[tuple[int, list[int]]] = []
    p = 0
    while len(nodes) < n_tree:
        # Binary near the root, one to three children further down, in a
        # fixed pattern: the shape is the same at every seed, so the work
        # the reasoner does varies little from seed to seed.
        fanout = 2 if p < 32 else (1, 2, 2, 3)[p % 4]
        k = min(fanout, n_tree - len(nodes))
        first = len(nodes)
        ns = "core" if first < n_tree // 5 else "main"
        blocks.append((p, list(range(first, first + k))))
        for i in range(first, first + k):
            nodes.append(_Node("", ns, "", p))
        p += 1

    # Main-namespace blocks come in runs, some of them inside with-suffix.
    suffixed: set[int] = set()
    b = 0
    while b < len(blocks):
        run = rng.randint(1, 4)
        if nodes[blocks[b][1][0]].ns == "main" and rng.random() < 0.3:
            suffixed.update(range(b, b + run))
        b += run
    for b, (_, kids) in enumerate(blocks):
        for i in kids:
            node = nodes[i]
            node.name = f"C{i}Part" if b in suffixed and node.ns == "main" else f"C{i}"
            base = CORE_BASE if node.ns == "core" else MAIN_BASE
            node.iri = base + node.name
    core_refs[nodes[0].iri] = "C0"
    for node in nodes[1:]:
        (core_refs if node.ns == "core" else main_refs)[node.iri] = node.name

    def tree_path(i: int) -> list[int]:
        path = []
        while i is not None:
            path.append(i)
            i = nodes[i].parent
        return path

    size = [1] * len(nodes)
    for i in range(len(nodes) - 1, 0, -1):
        size[nodes[i].parent] += size[i]

    # Told facts for tree nodes: parent edge plus one existential for every
    # odd node whose subtree holds at most 64 classes. Every subclass
    # inherits its ancestors' edges, so random carriers near the root would
    # swing the reasoner's work by a quarter from seed to seed.
    h.add(nodes[0].iri)
    class_forms: dict[int, str] = {}
    ex_of: dict[str, tuple[str, str]] = {}
    main_axioms = 0
    for i, node in enumerate(nodes[1:], start=1):
        opts = ""
        exists = []
        if i % 2 and size[i] <= 64:
            if rng.random() < 0.1:
                role, filler = CORE_BASE + "hasGrade", CORE_BASE + rng.choice(GRADES)
            else:
                role = CORE_BASE + rng.choice(ROLES)
                filler = nodes[rng.randrange(i)].iri
            exists.append((role, filler))
            ex_of[node.iri] = (role, filler)
            opts += f" :subclass (owlsome {ref(role, node.ns)} {ref(filler, node.ns)})"
        if rng.random() < 0.25:
            opts += f' :label "class {i} {rng.choice(WORDS)}"'
        if node.ns == "main":
            # declaration, parent edge, existential, label
            main_axioms += 2 + len(exists) + (":label" in opts)
        h.add(node.iri, [nodes[node.parent].iri], exists)
        class_forms[i] = f"(defclass C{i}{opts})"  # with-suffix adds "Part"

    core = _Source()
    core.add(f'(defontology core :iri "{CORE_BASE}" :prefix "core")')
    core.add('(read-external "units.ofn")')
    # Plain roles: no role axiom the classifier might later start to use, so
    # the expected taxonomy stays valid as the reasoner grows.
    core.add('(defoproperty r0 :label "r zero")')
    core.add("(defoproperty r1)")
    core.add("(defoproperty r2)")
    core.add("(value-partition Grade [Low Mid High])")
    core.add('(defclass C0 :label "root")')
    main = _Source()
    main.add(f'(defontology main :iri "{MAIN_BASE}" :prefix "main")')
    main.add("(use core)")
    main.add(
        "(deftemplate linked [?name ?parent ?role & ?fillers]\n"
        "  (defclass ?name :subclass ?parent (each ?fillers ?f (owlsome ?role ?f))))"
    )
    main_axioms += 1  # Import(core)

    open_suffix = False
    for b, (parent, kids) in enumerate(blocks):
        ns = nodes[kids[0]].ns
        out = core if ns == "core" else main
        if ns == "main" and (b in suffixed) != open_suffix:
            if open_suffix:
                main.lines[-1] += ")"
            else:
                main.add("(with-suffix Part")
            open_suffix = not open_suffix
        members = "\n".join("   " + class_forms[i] for i in kids)
        out.add(f"(as-disjoint-subclasses {ref(nodes[parent].iri, ns)}\n{members})")
        if len(kids) >= 2:
            h.add_disjoint([nodes[i].iri for i in kids])
            main_axioms += ns == "main"
    if open_suffix:
        main.lines[-1] += ")"

    # Template-stamped classes under random tree classes.
    groups = []
    for t in range(n_tmpl):
        iri = MAIN_BASE + f"T{t}"
        parent = nodes[rng.randrange(len(nodes))].iri
        role = CORE_BASE + rng.choice(ROLES)
        fillers = [nodes[i].iri for i in rng.sample(range(len(nodes)), rng.randint(1, 2))]
        h.add(iri, [parent], [(role, f) for f in fillers])
        ex_of[iri] = (role, fillers[0])
        main_refs[iri] = f"T{t}"
        groups.append(
            f"[T{t} {ref(parent, 'main')} {ref(role, 'main')} "
            + " ".join(ref(f, "main") for f in fillers)
            + "]"
        )
        main_axioms += 2 + len(fillers)
    for g in range(0, len(groups), 8):
        main.add("(linked " + "\n        ".join(groups[g:g + 8]) + ")")

    # Defined classes, each planted on a class X that has an existential.
    # A and B are kept to small subtrees, so that every definition captures
    # a bounded number of classes and the reasoner's work varies little
    # from seed to seed.
    children: dict[int, list[int]] = {}
    for i, node in enumerate(nodes[1:], start=1):
        children.setdefault(node.parent, []).append(i)

    def subtree(i: int) -> list[int]:
        out, todo = [], [i]
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(children.get(j, ()))
        return out

    index_of = {node.iri: i for i, node in enumerate(nodes)}

    def small_ancestors(iri: str, limit: int, strict: bool) -> list[str]:
        if iri not in index_of:  # a template class: start from its tree parent
            iri, strict = h.sups[iri][0], False
        path = tree_path(index_of[iri])[1 if strict else 0:]
        return [nodes[i].iri for i in path if size[i] <= limit]

    carriers = list(ex_of)
    triples: set[tuple[str, str, str]] = set()
    planted: list[tuple[str, str]] = []
    d = 0
    attempts = 0
    while d < n_def and attempts < 20 * n_def:
        attempts += 1
        x = rng.choice(carriers)
        anc = small_ancestors(x, 64, strict=True)
        role, y = ex_of[x]
        bs = small_ancestors(y, 64, strict=False) if y in index_of else [y]
        if not anc or not bs:
            continue
        a = rng.choice(anc)
        bb = bs[-1]  # the largest, so that B sizes vary little
        if (a, role, bb) in triples:
            continue
        triples.add((a, role, bb))
        iri = MAIN_BASE + f"D{d}"
        h.define(iri, a, role, bb)
        main_refs[iri] = f"D{d}"
        planted.append((x, iri))
        main.add(
            f"(defclass D{d} :equivalent (owland {ref(a, 'main')} "
            f"(owlsome {ref(role, 'main')} {ref(bb, 'main')})))"
        )
        main_axioms += 2
        d += 1

    # Tests, each assertion true or false by construction:
    # - X ⊑ D holds for every planted pair, and D ⊑ X never does, since A is
    #   strictly above X in the tree and D's tree subsumers are A's;
    # - a probe under a class below A with an r-edge to a class below B falls
    #   under D; a probe under a tree class P has no tree subsumer off P's path;
    # - a probe under two disjoint siblings is unsatisfiable.
    def rm(iri: str) -> str:
        return ref(iri, "main")

    tests: list[TestExpectation] = []
    plain = [Assertion("(coherent?)", True)]
    for x, dd in rng.sample(planted, min(n_plain, len(planted))):
        plain.append(Assertion(f"(isuperclass? {rm(x)} {rm(dd)})", True))
        plain.append(Assertion(f"(not (isuperclass? {rm(dd)} {rm(x)}))", True))
    tests.append(TestExpectation("Planted", plain))
    probes: list[Assertion] = []
    groups = [g for g in h.disjoint if len(g) >= 2]
    for k in range(n_probes):
        probe = f'(p (owlclass "probe_{k}" :subclass'
        if k % 4 == 3:
            s1, s2 = rng.sample(rng.choice(groups), 2)
            form = f"(with-probe-entities [{probe} {rm(s1)} {rm(s2)}))] (coherent?))"
            probes.append(Assertion(f"(not {form})", True))
        elif k % 2 == 0:
            dd = rng.choice(list(h.defs))
            a, role, bb = h.defs[dd]
            pa = nodes[rng.choice(subtree(index_of[a]))].iri
            py = rng.choice(subtree(index_of[bb])) if bb in index_of else None
            py = nodes[py].iri if py is not None else bb
            form = (
                f"(with-probe-entities [{probe} {rm(pa)} (owlsome {rm(role)} {rm(py)})))]"
                f" (isuperclass? p {rm(dd)}))"
            )
            probes.append(Assertion(form, True))
        else:
            pa = rng.randrange(1, len(nodes))
            path = set(tree_path(pa))
            q = rng.choice([i for i in range(len(nodes)) if i not in path])
            form = (
                f"(with-probe-entities [{probe} {rm(nodes[pa].iri)}))]"
                f" (isuperclass? p {rm(nodes[q].iri)}))"
            )
            probes.append(Assertion(f"(not {form})", True))
    if probes:
        tests.append(TestExpectation("Probes", probes))
    if failing:
        x, dd = planted[0]
        tests.append(
            TestExpectation("Failing", [Assertion(f"(isuperclass? {rm(dd)} {rm(x)})", False)])
        )
    _emit_tests(main, tests)

    main_classes = [x for x in h.order if x.startswith(MAIN_BASE)]
    return Tree(
        ns="main",
        files={
            "core.ont": core.text(),
            "main.ont": main.text(),
            "units.ofn": _units_text(rng, 30),
        },
        hierarchy=h,
        printed=main_classes,
        prefixes={"main": MAIN_BASE, "core": CORE_BASE},
        own_axioms=main_axioms,
        tests=tests,
    )


def probe_tree(seed: int, n_classes: int = 2000, n_probes: int = 10) -> Tree:
    """A smaller dense tree whose tests lean on probe blocks, one failing on purpose."""
    return dense_tree(
        seed, n_classes, n_probes=n_probes, n_plain=6, failing=True, name="probe-suite"
    )


class Reference:
    """A fixed computation whose wall time gauges the machine's current speed.

    Closing the hierarchy of a 2000-class dense tree at seed 0 is pure-Python
    set, dict and string work much like the classifier's, and it does not
    depend on the workload, the seed or the package under test. Timed just
    before and just after each command, it lets a run report the command's
    time at a nominal machine speed: `wall × NOMINAL_S / mean(before, after)`.
    """

    NOMINAL_S = 0.06

    def __init__(self) -> None:
        self._hierarchy = dense_tree(0, 2000).hierarchy

    def __call__(self) -> float:
        start = time.perf_counter()
        self._hierarchy.close()
        return time.perf_counter() - start


WORKLOADS = {
    "ingest-forest": forest_tree,
    "build-dense": dense_tree,
    "probe-suite": probe_tree,
}
