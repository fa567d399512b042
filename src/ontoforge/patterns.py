"""Pattern forms that expand into plain axioms during evaluation.

Four families live here: disjoint-subclass blocks (optionally covering),
name affix blocks, value partitions, and user-defined templates. Each
function receives the active Evaluator and drives it; nothing here touches
an ontology except through evaluator primitives, so pattern output is
indistinguishable from hand-written definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import Located, OntoforgeError, Source
from .model import (
    Axiom,
    ClassExpression,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    Kind,
    Named,
    ObjectPropertyRange,
    Or,
    SubClassOf,
)
from .sexpr import MAX_NESTING, BracketForm, Form, Identifier, Keyword, ListForm

# The most template bodies one evaluation may instantiate. Uses that each
# apply another template twice double the count per level, which no depth or
# nesting cap bounds.
MAX_INSTANTIATIONS = 10_000

if TYPE_CHECKING:
    from .evaluator import Evaluator


class PatternArity(OntoforgeError):
    pass


class PatternError(OntoforgeError):
    pass


class TemplateError(OntoforgeError):
    pass


class TemplateArity(OntoforgeError):
    pass


def _or_of(entities: list[Entity]) -> ClassExpression:
    # a union of one collapses to its sole member
    if len(entities) == 1:
        return Named(entities[0])
    return Or(tuple(Named(e) for e in entities))


def _subclass_block(parent: Entity, members: list[Entity], cover: bool) -> list[Axiom]:
    """Members under parent, pairwise disjoint, and covering it when cover is set."""
    axioms: list[Axiom] = [SubClassOf(Named(m), Named(parent)) for m in members]
    if len(members) >= 2:
        axioms.append(DisjointClasses(tuple(members)))
    if cover:
        axioms.append(EquivalentClasses((Named(parent), _or_of(members))))
    return axioms


def disjoint_subclasses(ev: "Evaluator", form: ListForm) -> list[Entity]:
    """(as-disjoint-subclasses Parent [:cover] (defclass ...)+)"""
    children = form.children[1:]
    if not children:
        raise PatternArity("as-disjoint-subclasses needs a parent class", form.location)
    parent = ev.resolve_ref(children[0], Kind.CLASS)
    rest = children[1:]
    cover = False
    if rest and isinstance(rest[0], Keyword):
        if rest[0].name != "cover":
            raise PatternArity(f"unknown flag ':{rest[0].name}'", rest[0].location)
        cover = True
        rest = rest[1:]
    if not rest:
        raise PatternArity("as-disjoint-subclasses needs at least one subclass", form.location)
    members: list[Entity] = []
    seen: set[Entity] = set()
    for child in rest:
        if not (
            isinstance(child, ListForm)
            and child.children
            and isinstance(child.children[0], Identifier)
            and child.children[0].name == "defclass"
        ):
            raise PatternArity(
                "as-disjoint-subclasses children must be defclass forms", child.location
            )
        member = ev.eval_top(child)
        if member in seen:
            raise PatternError(
                f"'{child.children[1].name}' is listed twice; disjoint subclasses must be distinct",
                child.location,
            )
        seen.add(member)
        members.append(member)
    ev.add_axioms(_subclass_block(parent, members, cover), form)
    return members


def affix_block(ev: "Evaluator", form: ListForm, where: str) -> None:
    """(with-suffix Affix forms...) / (with-prefix Affix forms...)"""
    children = form.children[1:]
    if not children or not isinstance(children[0], Identifier):
        raise PatternArity(f"with-{where} needs an affix identifier", form.location)
    ev.push_affix(where, children[0].name)
    try:
        for child in children[1:]:
            ev.eval_top(child)
    finally:
        ev.pop_affix()


def value_partition(ev: "Evaluator", form: ListForm) -> Entity:
    """(value-partition Name [V1 V2 ...])

    Declares the partition class, one class per value (a covering disjoint
    subclass block), and a functional has<Name> property ranging over the
    partition.
    """
    children = form.children[1:]
    if (
        len(children) != 2
        or not isinstance(children[0], Identifier)
        or not isinstance(children[1], BracketForm)
    ):
        raise PatternArity("value-partition needs a name and a bracket of values", form.location)
    value_forms = children[1].children
    if len(value_forms) < 2:
        raise PatternArity("value-partition needs at least two values", children[1].location)
    seen: set[str] = set()
    for v in value_forms:
        if not isinstance(v, Identifier):
            raise PatternArity("partition values must be identifiers", v.location)
        if v.name in seen:
            raise PatternError(
                f"'{v.name}' is listed twice; partition values must be distinct", v.location
            )
        seen.add(v.name)
    name = children[0].name
    parent = ev.declare(name, children[0], Kind.CLASS)
    values = [ev.declare(v.name, v, Kind.CLASS) for v in value_forms]
    prop = ev.declare("has" + name, children[0], Kind.OBJECT_PROPERTY)
    axioms = _subclass_block(parent, values, cover=True)
    axioms += [FunctionalObjectProperty(prop), ObjectPropertyRange(prop, Named(parent))]
    ev.add_axioms(axioms, form)
    return parent


# --- templates ---------------------------------------------------------------


@dataclass(frozen=True)
class TemplateDef(Located):
    name: str
    params: tuple[str, ...]
    rest: str | None
    body: tuple[Form, ...]
    offset: int
    source: Source


def _marker(form: Form) -> str | None:
    if isinstance(form, Identifier) and form.name.startswith("?") and len(form.name) > 1:
        return form.name[1:]
    return None


def _is_each(form: Form) -> bool:
    return (
        isinstance(form, ListForm)
        and len(form.children) > 0
        and isinstance(form.children[0], Identifier)
        and form.children[0].name == "each"
    )


def _each_parts(form: ListForm, rest: str | None) -> tuple[str, Form]:
    if len(form.children) != 4:
        raise TemplateError("each needs (each ?rest ?var form)", form.location)
    list_var = _marker(form.children[1])
    loop_var = _marker(form.children[2])
    if list_var is None or loop_var is None:
        raise TemplateError("each needs ?-markers for its variables", form.location)
    if rest is None or list_var != rest:
        raise TemplateError(
            f"each iterates the rest parameter, not '?{list_var}'", form.children[1].location
        )
    return loop_var, form.children[3]


def _validate_body(form: Form, allowed: set[str], rest: str | None) -> None:
    marker = _marker(form)
    if marker is not None and marker not in allowed:
        raise TemplateError(f"unknown template variable '?{marker}'", form.location)
    if isinstance(form, (ListForm, BracketForm)):
        for child in form.children:
            if _is_each(child):
                loop_var, inner = _each_parts(child, rest)
                _validate_body(inner, allowed | {loop_var}, rest)
            else:
                _validate_body(child, allowed, rest)


def define_template(ev: "Evaluator", form: ListForm) -> TemplateDef:
    """(deftemplate name [?p1 ... & ?rest] body-forms...)"""
    children = form.children[1:]
    if (
        len(children) < 2
        or not isinstance(children[0], Identifier)
        or not isinstance(children[1], BracketForm)
    ):
        raise TemplateError("deftemplate needs a name and a parameter bracket", form.location)
    name = children[0].name
    if name in ev.env.templates:
        raise TemplateError(f"duplicate template name '{name}'", children[0].location)
    params: list[str] = []
    rest: str | None = None
    param_forms = list(children[1].children)
    i = 0
    while i < len(param_forms):
        p = param_forms[i]
        if isinstance(p, Identifier) and p.name == "&":
            if rest is not None or i + 1 != len(param_forms) - 1:
                raise TemplateError("'&' must introduce exactly one rest parameter", p.location)
            marker = _marker(param_forms[i + 1])
            if marker is None:
                raise TemplateError("rest parameter needs a ?-marker", param_forms[i + 1].location)
            rest = marker
            i += 2
            continue
        marker = _marker(p)
        if marker is None:
            raise TemplateError("parameters need ?-markers", p.location)
        if marker in params or marker == rest:
            raise TemplateError(f"duplicate parameter '?{marker}'", p.location)
        params.append(marker)
        i += 1
    body = children[2:]
    allowed = set(params) | ({rest} if rest else set())
    for body_form in body:
        _validate_body(body_form, allowed, rest)
    template = TemplateDef(name, tuple(params), rest, tuple(body), form.offset, form.source)
    ev.env.templates[name] = template
    return template


def _substitute(
    form: Form, single: dict[str, Form], rest: str | None, rest_forms: tuple[Form, ...]
) -> Form:
    marker = _marker(form)
    if marker is not None:
        if marker in single:
            return single[marker]
        if marker == rest:
            raise TemplateError(
                f"list parameter '?{marker}' used outside a list position", form.location
            )
        raise TemplateError(f"unknown template variable '?{marker}'", form.location)
    if isinstance(form, (ListForm, BracketForm)):
        children: list[Form] = []
        for child in form.children:
            child_marker = _marker(child)
            if child_marker is not None and child_marker == rest:
                children.extend(rest_forms)
            elif _is_each(child):
                loop_var, inner = _each_parts(child, rest)
                for element in rest_forms:
                    children.append(
                        _substitute(inner, {**single, loop_var: element}, rest, rest_forms)
                    )
            else:
                children.append(_substitute(child, single, rest, rest_forms))
        return type(form)(tuple(children), form.offset, form.source)
    return form


def _check_nesting(form: Form, depth: int, use: ListForm) -> None:
    """Arguments spliced into a body can nest it deeper than the reader allows."""
    if isinstance(form, (ListForm, BracketForm)):
        if depth > MAX_NESTING:
            raise TemplateError(f"expansion nests deeper than {MAX_NESTING} levels", use.location)
        for child in form.children:
            _check_nesting(child, depth + 1, use)


def apply_template(ev: "Evaluator", template: TemplateDef, form: ListForm) -> int:
    """Instantiate the template body once per bracket argument group.

    A use inside an expansion is one level deeper than the use that expanded
    it; past `MAX_NESTING` levels the use is an error, so a template that
    applies itself stops there instead of exhausting the Python stack. An
    expanded form may nest `MAX_NESTING` levels deep, as a read one may. The
    use that would instantiate a body past `MAX_INSTANTIATIONS` in one
    evaluation is an error too.
    """
    groups = form.children[1:]
    if not groups:
        raise TemplateArity(f"template '{template.name}' needs argument groups", form.location)
    if ev.template_depth == MAX_NESTING:
        raise TemplateError(f"template expansion deeper than {MAX_NESTING} levels", form.location)
    instantiated = 0
    for group in groups:
        if not isinstance(group, BracketForm):
            raise TemplateArity("template arguments must be bracket groups", group.location)
        args = group.children
        if template.rest is None:
            if len(args) != len(template.params):
                raise TemplateArity(
                    f"template '{template.name}' takes {len(template.params)} arguments, "
                    f"got {len(args)}",
                    group.location,
                )
        elif len(args) < len(template.params):
            raise TemplateArity(
                f"template '{template.name}' takes at least {len(template.params)} arguments, "
                f"got {len(args)}",
                group.location,
            )
        if ev.template_instantiations == MAX_INSTANTIATIONS:
            raise TemplateError(
                f"more than {MAX_INSTANTIATIONS} template expansions", form.location
            )
        ev.template_instantiations += 1
        single = dict(zip(template.params, args))
        rest_forms = tuple(args[len(template.params):])
        ev.template_depth += 1
        try:
            for body_form in template.body:
                expanded = _substitute(body_form, single, template.rest, rest_forms)
                _check_nesting(expanded, 1, form)
                ev.eval_top(expanded)
        finally:
            ev.template_depth -= 1
        instantiated += 1
    return instantiated
