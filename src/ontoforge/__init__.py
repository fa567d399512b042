"""Ontology development as programming: a textual DSL, patterns, an EL
reasoner, serializers, and a test runner for OWL ontologies.

Every public name is importable from here, but no module loads with the
package: `_EXPORTS` maps each module to the names it defines, and the module
`__getattr__` (PEP 562) imports a name's module on its first access and
caches the name. `ontoforge.cli` resolves its library names by the same rule,
so each command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": ("Diagnostic", "Location", "OntoforgeError"),
    "evaluator": ("Environment", "EvalError", "Evaluator", "Loader", "eval_forms", "eval_text",
                  "resolve"),
    "importer": ("MemoTable", "intern_external", "label_to_identifier", "memorise_check",
                 "memorise_save", "parse_functional"),
    "model": ("And", "AnnotationAssertion", "AnnotationValue", "Axiom", "Declaration",
              "DisjointClasses", "Entity", "EquivalentClasses", "FunctionalObjectProperty",
              "Import", "IRI", "Kind", "KINDS", "Named", "Not", "NOTHING", "ObjectPropertyDomain",
              "ObjectPropertyRange", "Only", "Ontology", "Or", "Some", "SubClassOf",
              "SubObjectPropertyOf", "THING", "TransitiveObjectProperty"),
    "polyglot": ("apply_labels", "emit_skeleton", "parse_properties", "render_properties"),
    "reasoner": ("Taxonomy", "classify", "coherence_report", "direct_superclasses",
                 "inferred_superclass"),
    "serializer": ("render_functional", "render_omn"),
    "sexpr": ("ParseError", "read_forms"),
    "testkit": ("TestReport", "run_tests", "tap_lines"),
}


def _lazy_getattr(namespace: dict, table: dict[str, tuple[str, ...]]):
    """The module `__getattr__` of the module whose globals are namespace.

    table maps modules of this package to names the module takes from them.
    Python calls `__getattr__` only for a name missing from namespace, so the
    first access imports the defining module and stores the name there; later
    lookups, and a patch set on the module, are found without it. A module of
    table resolves to itself, as `ontoforge.model` did when the package
    imported every module.
    """
    homes = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name in table:
            return importlib.import_module(f"{__name__}.{name}")
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{homes[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _EXPORTS)
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
