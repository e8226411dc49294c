"""Every structure map the resolver builds equals the reference builder's.

The resolver reads each table line's cells straight into the columns of
its map; table_reference keeps the builder that went through an (i, j, k)
dict and exactlin.table_map.  Every map of every section must be equal,
denominator and all (LinearMap.__eq__ compares values, so the stored
denominators are compared too), on
h4.alg at two twist points, every perfbench mutation of both, the
diagnostics corpus inputs that resolve and the family-rule input.
"""

import pytest

from homyd.defformat import parse_definition, resolve_definition
from table_reference import reference_maps
from test_ast_golden import INPUTS
from test_defformat import FAMILY_RULES, H4_ALG
from test_diagnostics_golden import corpus, outcome


def texts():
    text = H4_ALG.read_text(encoding="utf-8")
    for point in ("c = 1", "c = -3/2"):
        shipped = text.replace("c = 1\n", point + "\n", 1)
        yield point, shipped
        for name, mutation in sorted(INPUTS.MUTATIONS.items()):
            yield "%s, %s" % (point, name), INPUTS.apply_mutation(shipped, mutation)
    for i, text in enumerate(corpus()):
        if outcome(text) == "ok":
            yield "corpus %d" % i, text
    yield "family rules", FAMILY_RULES


CASES = dict(texts())


@pytest.mark.parametrize("case", list(CASES))
def test_every_map_equals_the_reference(case):
    resolved = resolve_definition(parse_definition(CASES[case]))
    maps = list(reference_maps(resolved))
    assert len({name for name, *_ in maps}) == len(resolved.objects)
    assert [(name, key) for name, key, got, want in maps if got != want or got._den != want._den] == []
