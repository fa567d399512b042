"""Self-test of the benchmark's generators and checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_gen.py

At small sizes, the subsumers and test verdicts that the generators plant
must agree with the brute-force oracle in tests/el_oracle.py, which is
imported as it is, and the CLI must print exactly what the benchmark
expects of it.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import gen  # noqa: E402
import worker  # noqa: E402
from el_oracle import BOT, TOP, el_subsumers  # noqa: E402
from ontoforge import cli  # noqa: E402
from ontoforge.evaluator import Loader  # noqa: E402
from ontoforge.model import (  # noqa: E402
    Declaration,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    IRI,
    Kind,
    Named,
    Some,
    SubClassOf,
)
from ontoforge.sexpr import Identifier, read_forms  # noqa: E402

SMALL = {
    "ingest-forest": dict(n_forest=60, n_local=12),
    "build-dense": dict(n_classes=80),
    "probe-suite": dict(n_classes=60, n_probes=8),
}
CASES = [(name, seed) for name in SMALL for seed in range(3)]
_ORACLE_AXIOMS = (Declaration, SubClassOf, EquivalentClasses, DisjointClasses)


def _small_tree(name: str, seed: int):
    return gen.WORKLOADS[name](seed, **SMALL[name])


def _oracle_input(env) -> list:
    """The class axioms of the closure, plus declarations of imported classes."""
    axioms = [a for a in env.axiom_closure() if isinstance(a, _ORACLE_AXIOMS)]
    for e in env.all_environments():
        axioms += [Declaration(c) for c in e.ontology.imported.values() if c.kind is Kind.CLASS]
    return axioms


def _verdict(form, env, axioms, local, base) -> bool:
    """Evaluate one test assertion with the oracle instead of the reasoner."""
    head, args = form.children[0].name, form.children[1:]

    def entity(f):
        return local.get(f.name) or env.bindings[f.name]

    def expr(f):
        if isinstance(f, Identifier):
            return Named(entity(f))
        _, prop, filler = f.children  # (owlsome r X)
        return Some(entity(prop), expr(filler))

    if head == "not":
        return not _verdict(args[0], env, axioms, local, base)
    if head in ("coherent?", "isuperclass?"):
        subsumers = base if axioms is None else el_subsumers(axioms)
        if head == "coherent?":
            return all(BOT not in s for s in subsumers.values())
        sub, sup = entity(args[0]), entity(args[1])
        return sub != sup and sup.iri.value in subsumers[sub.iri.value]
    assert head == "with-probe-entities"
    extra, local = [], dict(local)
    for binding in args[0].children:
        name, maker = binding.children
        probe = Entity(Kind.CLASS, IRI(env.ontology.iri.value + maker.children[1].value))
        local[name.name] = probe
        extra.append(Declaration(probe))
        assert maker.children[2].name == "subclass"
        extra += [SubClassOf(Named(probe), expr(ce)) for ce in maker.children[3:]]
    return _verdict(args[1], env, (axioms or _oracle_input(env)) + extra, local, base)


@pytest.mark.parametrize("name,seed", CASES)
def test_planted_subsumers_match_the_oracle(name, seed, tmp_path):
    tree = _small_tree(name, seed)
    tree.write(tmp_path)
    env = Loader(tmp_path).load(tree.ns)
    oracle = el_subsumers(_oracle_input(env))
    planted = tree.hierarchy.close()
    for iri, subsumers in planted.items():
        assert oracle[iri] == frozenset(subsumers | {TOP}), iri


@pytest.mark.parametrize("name,seed", CASES)
def test_planted_test_verdicts_match_the_oracle(name, seed, tmp_path):
    tree = _small_tree(name, seed)
    tree.write(tmp_path)
    env = Loader(tmp_path).load(tree.ns)
    base = el_subsumers(_oracle_input(env))
    for test in tree.tests:
        for assertion in test.assertions:
            (form,) = read_forms(assertion.text)
            assert _verdict(form, env, None, {}, base) == assertion.holds, assertion.text


@pytest.mark.parametrize("name,seed", CASES)
def test_cli_prints_what_the_benchmark_expects(name, seed, tmp_path):
    tree = _small_tree(name, seed)
    src, out = tmp_path / "src", tmp_path / "out"
    tree.write(src)
    check = worker.Checker()
    for cmd, (argv, want_rc, want) in tree.expected(src, out, tree.hierarchy.close()).items():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        check.command(cmd, rc, sink.getvalue(), want_rc, want)
    worker.library_checks(tree, src, out, check)
    assert (check.failed, check.mismatches, check.notes) == (0, 0, [])


def test_checker_counts_a_wrong_line():
    check = worker.Checker()
    check.command("classify", 0, "a\tb\nc\td\n", 0, "a\tb\nc\te\n")
    assert (check.ops, check.failed, check.mismatches) == (1, 1, 2)


@pytest.mark.parametrize("name", SMALL)
def test_same_seed_same_files(name):
    assert _small_tree(name, 7).files == _small_tree(name, 7).files
    assert _small_tree(name, 7).files != _small_tree(name, 8).files
