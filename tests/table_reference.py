"""Reference table builder: the structure maps of a parsed section as the
resolver built them before it read cells straight into columns.

reference_table is that builder: it writes every cell of a key's lines
into an (i, j, k) dict, padded to three indices, and reads the dict
through exactlin.table_map, which takes each cell apart again by divmod.
reference_maps gives, per resolved section, each of its maps beside the
reference map of the lines it was built from.
"""

from homyd.defformat import _LEGS, _basis_of, _over_name, eval_expr
from homyd.exactlin import LinearMap, table_map


def reference_table(key, lines, bases, params):
    """The map of a section's `key` lines; bases maps each leg of
    _LEGS[key] to its basis labels."""
    arg_legs, term_legs = _LEGS[key]
    family = lines.get(key, ())
    if not family and len(arg_legs) == len(term_legs) == 1:
        return LinearMap.identity(len(bases[arg_legs[0]]))
    index = {leg: {label: i for i, label in enumerate(basis)} for leg, basis in bases.items()}
    arg_index = [index[leg] for leg in arg_legs]
    term_index = [index[leg] for leg in term_legs]
    columns = {}
    for e in family:
        col = tuple(map(dict.__getitem__, arg_index, e.args))
        if not term_legs:
            cells = {(0,): eval_expr(e.value, params, e.line)}
        else:
            cells = {}
            for t in e.value:
                cell = tuple(map(dict.__getitem__, term_index, t.atom))
                v = eval_expr(t.coef, params, e.line)
                cells[cell] = cells[cell] + v if cell in cells else v
        if len(term_legs) == 2:  # comul, coact
            old = columns.setdefault(col, {})
            for cell, v in cells.items():
                old[cell] = old[cell] + v if cell in old else v
        elif len(arg_legs) == 2:  # mul, act
            columns.setdefault(col, {}).update((cell, v) for cell, v in cells.items() if v)
        else:
            columns[col] = cells
    dims = tuple(len(bases[leg]) for leg in arg_legs) + (tuple(len(bases[leg]) for leg in term_legs) or (1,))
    pad = (0,) * (3 - len(dims))
    data = {pad + col + cell: v for col, cells in columns.items() for cell, v in cells.items()}
    return table_map((1,) * len(pad) + dims, data, max(len(term_legs), 1))


#: per section kind, each key and the path of the resolved map it builds
MAPS = {
    "algebra": {"unit": "unit", "mul": "mul", "alpha": "alpha"},
    "coalgebra": {"comul": "comul", "counit": "counit", "gamma": "gamma"},
    "hopf": {"unit": "algebra.unit", "mul": "algebra.mul", "alpha": "alpha", "comul": "coalgebra.comul",
             "counit": "coalgebra.counit", "antipode": "antipode"},
    "module": {"mu": "mu", "act": "action"},
    "comodule": {"mu": "mu", "coact": "coaction"},
    "ydmodule": {"mu": "mu", "act": "action", "coact": "coaction", "a": "pair_a.matrix", "b": "pair_b.matrix"},
    "autpair": {"a": "a.matrix", "b": "b.matrix"},
}


def reference_maps(resolved):
    """(section name, key, resolved map, reference map) for every map of
    every section of the resolved file; a pair taken from a `pair:` line
    is the autpair's, so a and b are then left out."""
    for name, (kind, obj) in resolved.objects.items():
        section = resolved.sections[name]
        lines = {}
        for e in section.entries:
            lines.setdefault(e.key, []).append(e)
        bases = {}
        if kind in ("module", "comodule", "ydmodule", "autpair"):
            bases["over"] = resolved.get(_over_name(section, None))[1].basis
        if kind != "autpair":
            bases["own"] = _basis_of(section)
        for key, path in MAPS[kind].items():
            if key in ("a", "b") and "pair" in lines:
                continue
            got = obj
            for attr in path.split("."):
                got = getattr(got, attr)
            yield name, key, got, reference_table(key, lines, bases, resolved.params)
