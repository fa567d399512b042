"""Pattern forms that expand into plain axioms during evaluation.

Four families live here: disjoint-subclass blocks (optionally covering),
name affix blocks, value partitions, and user-defined templates. Each
function is the handler of a row of `evaluator.TOP_FORMS`: it receives the
active Evaluator, the form and the operands the row checked, and drives the
evaluator; nothing here touches an ontology except through evaluator
primitives, so pattern output is indistinguishable from hand-written
definitions. What a form holds past its fixed operands is checked by rows
of its own, where the handler reaches it: `SUBCLASSES` (the members after
the `:cover` flag), `VALUES` (a partition's bracket), `EACH` (an `each` in
a template body), and each template, which is the row its uses are
dispatched by.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import OntoforgeError
from .model import (
    BUILTIN_ENTITIES,
    Axiom,
    ClassExpression,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    IRI,
    Kind,
    Named,
    ObjectPropertyRange,
    Or,
    SubClassOf,
)
from .sexpr import MAX_NESTING, BracketForm, Form, Identifier, Keyword, ListForm, Row, head_name

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


def _subclass_block(parent: Entity, members: list[Entity], forms, cover: bool) -> list[Axiom]:
    """Members under parent, pairwise disjoint, and covering it when cover is set.

    forms holds each member's form, where a member the disjointness refuses
    (owl:Thing or owl:Nothing; the forms already refuse a repeat) is located.
    """
    axioms: list[Axiom] = [SubClassOf(Named(m), Named(parent)) for m in members]
    if len(members) >= 2:
        try:
            axioms.append(DisjointClasses(tuple(members)))
        except ValueError as err:
            at = next(f for m, f in zip(members, forms) if m.iri in BUILTIN_ENTITIES)
            raise PatternError(str(err), at.location) from None
    if cover:
        axioms.append(EquivalentClasses((Named(parent), _or_of(members))))
    return axioms


# The members of an `as-disjoint-subclasses` block, after its optional `:cover`
# flag; the block's own row leaves their count and kind to this one.
SUBCLASSES = Row(None, "(defclass)+", PatternArity,
                 "as-disjoint-subclasses needs at least one subclass",
                 each="as-disjoint-subclasses children must be defclass forms")
# The values bracket of a `value-partition`.
VALUES = Row(None, "identifier*", PatternArity, "value-partition needs at least two values",
             each="partition values must be identifiers", fewest=2)


def disjoint_subclasses(ev: "Evaluator", form: ListForm, args) -> list[Entity]:
    """(as-disjoint-subclasses Parent [:cover] (defclass ...)+)"""
    parent = ev.resolve_ref(args[0], Kind.CLASS)
    rest = args[1:]
    cover = False
    if rest and isinstance(rest[0], Keyword):
        if rest[0].name != "cover":
            raise PatternArity(f"unknown flag ':{rest[0].name}'", rest[0].location)
        cover = True
        rest = rest[1:]
    members: list[Entity] = []
    seen: set[IRI] = set()  # every member is a class, so its IRI tells it apart
    children = SUBCLASSES.check(form, rest)
    for child in children:
        member = ev.eval_top(SUBCLASSES.each(child))
        if member.iri in seen:
            raise PatternError(
                f"'{child.children[1].name}' is listed twice; disjoint subclasses must be distinct",
                child.location,
            )
        seen.add(member.iri)
        members.append(member)
    ev.add_axioms(_subclass_block(parent, members, children, cover), form)
    return members


def affix_block(ev: "Evaluator", form: ListForm, args, where: str) -> None:
    """(with-suffix Affix forms...) / (with-prefix Affix forms...)"""
    ev.push_affix(where, args[0].name)
    try:
        for child in args[1:]:
            ev.eval_top(child)
    finally:
        ev.pop_affix()


def value_partition(ev: "Evaluator", form: ListForm, args) -> Entity:
    """(value-partition Name [V1 V2 ...])

    Declares the partition class, one class per value (a covering disjoint
    subclass block), and a functional has<Name> property ranging over the
    partition.
    """
    name_form, bracket = args
    value_forms = VALUES.check(bracket, bracket.children)
    seen: set[str] = set()
    for v in value_forms:
        if VALUES.each(v).name in seen:
            raise PatternError(
                f"'{v.name}' is listed twice; partition values must be distinct", v.location
            )
        seen.add(v.name)
    name = name_form.name
    parent = ev.declare(name, name_form, Kind.CLASS)
    values = [ev.declare(v.name, v, Kind.CLASS) for v in value_forms]
    prop = ev.declare("has" + name, name_form, Kind.OBJECT_PROPERTY)
    axioms = _subclass_block(parent, values, value_forms, cover=True)
    axioms += [FunctionalObjectProperty(prop), ObjectPropertyRange(prop, Named(parent))]
    ev.add_axioms(axioms, form)
    return parent


# --- templates ---------------------------------------------------------------


class TemplateDef(Row):
    """A template, and the row its uses are dispatched and checked by."""

    __slots__ = ("name", "params", "rest", "body")

    def __init__(self, name: str, params: tuple[str, ...], rest: str | None, body: tuple):
        super().__init__(_use_template, "bracket+", TemplateArity,
                         f"template '{name}' needs argument groups",
                         each="template arguments must be bracket groups")
        self.name, self.params, self.rest, self.body = name, params, rest, body


def _use_template(ev: "Evaluator", template: TemplateDef, form: ListForm, args) -> int:
    return apply_template(ev, template, form)


def _marker(form: Form) -> str | None:
    if isinstance(form, Identifier) and form.name.startswith("?") and len(form.name) > 1:
        return form.name[1:]
    return None


# An `(each ?rest ?var form)` in a template body.
EACH = Row(None, "form form form", TemplateError, "each needs (each ?rest ?var form)")


def _each_parts(form: ListForm, rest: str | None) -> tuple[str, Form]:
    list_form, loop_form, inner = EACH.check(form, form.children[1:])
    list_var, loop_var = _marker(list_form), _marker(loop_form)
    if list_var is None or loop_var is None:
        raise TemplateError("each needs ?-markers for its variables", form.location)
    if rest is None or list_var != rest:
        raise TemplateError(f"each iterates the rest parameter, not '?{list_var}'",
                            list_form.location)
    return loop_var, inner


def _validate_body(form: Form, allowed: set[str], rest: str | None) -> None:
    marker = _marker(form)
    if marker is not None and marker not in allowed:
        raise TemplateError(f"unknown template variable '?{marker}'", form.location)
    if isinstance(form, (ListForm, BracketForm)):
        for child in form.children:
            if head_name(child) == "each":
                loop_var, inner = _each_parts(child, rest)
                _validate_body(inner, allowed | {loop_var}, rest)
            else:
                _validate_body(child, allowed, rest)


def define_template(ev: "Evaluator", form: ListForm, args) -> TemplateDef:
    """(deftemplate name [?p1 ... & ?rest] body-forms...)"""
    name = args[0].name
    if name in ev.env.templates:
        raise TemplateError(f"duplicate template name '{name}'", args[0].location)
    forms = args[1].children
    amp = next((i for i, p in enumerate(forms) if isinstance(p, Identifier) and p.name == "&"),
               len(forms))
    params: list[str] = []
    for p in forms[:amp]:
        marker = _marker(p)
        if marker is None:
            raise TemplateError("parameters need ?-markers", p.location)
        if marker in params:
            raise TemplateError(f"duplicate parameter '?{marker}'", p.location)
        params.append(marker)
    rest: str | None = None
    if amp < len(forms):
        if amp != len(forms) - 2:
            message = "'&' must introduce exactly one rest parameter"
            raise TemplateError(message, forms[amp].location)
        rest = _marker(forms[-1])
        if rest is None:
            raise TemplateError("rest parameter needs a ?-marker", forms[-1].location)
    body = args[2:]
    allowed = set(params) | ({rest} if rest else set())
    for body_form in body:
        _validate_body(body_form, allowed, rest)
    template = TemplateDef(name, tuple(params), rest, body)
    ev.env.templates[name] = template
    return template


def _substitute(
    form: Form, single: dict[str, Form], rest: str | None, rest_forms: tuple[Form, ...]
) -> Form:
    """form with its markers replaced. `define_template` refused every marker
    that is not a parameter, the rest parameter or an enclosing `each`
    variable, and substituted forms are not scanned again, so a marker here is
    bound in single unless it is the rest parameter."""
    marker = _marker(form)
    if marker is not None:
        if marker in single:
            return single[marker]
        raise TemplateError(
            f"list parameter '?{marker}' used outside a list position", form.location
        )
    if isinstance(form, (ListForm, BracketForm)):
        children: list[Form] = []
        for child in form.children:
            child_marker = _marker(child)
            if child_marker is not None and child_marker == rest:
                children.extend(rest_forms)
            elif head_name(child) == "each":
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
    if ev.template_depth == MAX_NESTING:
        raise TemplateError(f"template expansion deeper than {MAX_NESTING} levels", form.location)
    instantiated = 0
    for group in form.children[1:]:
        args = template.each(group).children
        fixed = len(template.params)
        if len(args) < fixed or (template.rest is None and len(args) > fixed):
            least = "" if template.rest is None else "at least "
            message = f"template '{template.name}' takes {least}{fixed} arguments, got {len(args)}"
            raise TemplateArity(message, group.location)
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
