"""The functional-syntax reader's golden file: its output on seeded mutants.

`mutant_texts` builds the inputs and `mutant_record` the line each one gets;
`tests/test_importer.py` compares them with `tests/data/ofn_mutants.json`.
The inputs are `render_functional` output for the bundled pizza, a small
labelled forest and random ontologies, each mutated by byte flips of the
syntax's delimiters, token deletions, duplications and swaps, and
truncations. A record pins either what the text parses to or which error
wins, with its message and place, so a change to the reader that reorders
its checks shows here. Run as a script, with no pytest needed, it prints
that file. A change meant to alter the reader's output rewrites the file,
and says why:

    PYTHONPATH=src python tests/ofn_mutants.py > tests/data/ofn_mutants.json
"""

import hashlib
import json
import random
import re
from pathlib import Path

from ontoforge.errors import OntoforgeError
from ontoforge.importer import parse_functional
from ontoforge.serializer import render_functional
from ontoforge.sexpr import MAX_NESTING
from support import forest_functional_text, pizza_env, random_full_ontology

GOLDEN = Path(__file__).parent / "data" / "ofn_mutants.json"

# Characters a byte flip writes: the functional syntax's delimiters and the
# escape character, which a flip also puts inside literals.
_FLIP_CHARS = '():=<>"@\\'

# A token for the mutator, by a rule of its own: punctuation, a literal with
# its language tag, or a run of anything else.
_TOKEN_RE = re.compile(r'[()]|"(?:[^"\\]|\\.)*"(?:@[^\s()]*)?|[^\s()]+')


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        spans = [m.span() for m in _TOKEN_RE.finditer(text)]
        literals = [(a, b) for a, b in spans if text[a] == '"' and b - a >= 2]
        op = rng.randrange(6)
        if op == 5 and literals:  # a backslash inside a literal
            start, end = rng.choice(literals)
            pos = rng.randrange(start + 1, end)
            text = text[:pos] + "\\" + text[pos:]
        elif op in (0, 5) or not spans:  # byte flip, in place or inserted
            pos = rng.randrange(len(text) + 1)
            text = text[:pos] + rng.choice(_FLIP_CHARS) + text[pos + rng.randrange(2):]
        elif op == 1:  # delete a token
            start, end = rng.choice(spans)
            text = text[:start] + text[end:]
        elif op == 2:  # duplicate a token
            start, end = rng.choice(spans)
            text = text[:end] + " " + text[start:end] + text[end:]
        elif op == 3 and len(spans) >= 2:  # swap two neighbouring tokens
            i = rng.randrange(len(spans) - 1)
            (a, b), (c, d) = spans[i], spans[i + 1]
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        else:  # truncate
            text = text[:rng.randrange(len(text) + 1)]
    return text


def _sources() -> list[str]:
    """The texts the mutants come from, each a `render_functional` output."""
    texts = [render_functional(pizza_env().ontology)]
    texts.append(render_functional(parse_functional(forest_functional_text(40))))
    for seed in range(20):
        texts.append(render_functional(random_full_ontology(random.Random(seed))))
    return texts


def _nest(depth: int) -> str:
    """An axiom whose class expression lies inside depth parentheses."""
    inner = "e:B"
    for _ in range(depth - 2):
        inner = f"ObjectComplementOf({inner})"
    return (
        "Prefix(e:=<https://example.org/e#>)\nOntology(<https://example.org/e#>\n"
        f"SubClassOf(e:A {inner})\n)\n"
    )


def mutant_texts() -> list[str]:
    """Seeded inputs: 1500 pizza mutants, 500 forest mutants, 50 mutants of
    each of 20 random ontologies, and 40 nests around the nesting cap."""
    pizza, forest, *randoms = _sources()
    texts = [pizza, forest, *randoms]
    for seed in range(1500):
        texts.append(_mutate(pizza, random.Random(seed)))
    for seed in range(500):
        texts.append(_mutate(forest, random.Random(10_000 + seed)))
    for i, source in enumerate(randoms):
        for seed in range(50):
            texts.append(_mutate(source, random.Random(20_000 + 100 * i + seed)))
    for seed in range(40):
        rng = random.Random(30_000 + seed)
        text = _nest(MAX_NESTING - 2 + seed % 5)
        texts.append(text if seed < 5 else _mutate(text, rng))
    return texts


def mutant_record(text: str) -> list:
    """[input digest, "ok", digest of the axioms, entities, imports and prefixes]
    or [input digest, "error", error class, message, line, column]."""
    key = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    try:
        onto = parse_functional(text, "m.ofn")
    except OntoforgeError as err:
        assert err.location.file == "m.ofn"
        loc = err.location
        return [key, "error", type(err).__name__, err.message, loc.line, loc.column]
    parsed = (
        onto.iri,
        list(onto.axioms),
        list(onto.entities.items()),
        list(onto.imported.items()),
        list(onto.prefixes.items()),
    )
    return [key, "ok", hashlib.sha256(repr(parsed).encode("utf-8")).hexdigest()[:16]]


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(mutant_record(text)) for text in mutant_texts()) + "\n]")
