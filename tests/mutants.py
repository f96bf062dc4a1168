"""Copies of exact routines, each with one named fault.

Each copy is compiled from its routine's own source with one edit, so it
follows the routine as the routine changes.  A test beside each oracle
comparison runs the comparison on the copy and asserts that it is refused:
an oracle that can no longer tell the fault from the routine fails tier-1.
An edit that no longer applies fails the mutant's own test, naming it.
"""

import functools
import inspect
import sys
import textwrap

from quasiact import finmap, quasiaction
from quasiact.constructions import girth


@functools.cache
def mutant(routine, edits: tuple, caller=None):
    """routine compiled again in a copy of its module's namespace, with each
    (old, new) of edits made where old occurs exactly once.  Given a caller
    from the same module, the caller is compiled there too and returned, so
    that it calls the faulty copy."""
    source = textwrap.dedent(inspect.getsource(routine))
    for old, new in edits:
        if source.count(old) != 1:  # not an AssertionError, which the tests expect of the copy
            raise LookupError(f"{routine.__qualname__} no longer reads {old!r} once")
        source = source.replace(old, new)
    namespace = dict(vars(sys.modules[routine.__module__]))
    exec(source, namespace)
    if caller is not None:
        exec(inspect.getsource(caller), namespace)
    return namespace[(caller or routine).__name__]


def skipping_schreier_sims(gens):
    """schreier_sims with one fault: once any orbit point's Schreier
    generator for s sifts to 1, s is skipped at every point of that level."""
    return mutant(finmap.schreier_sims, (("(i, p, n) not in sifted", "(i, n) not in sifted"),
                                         ("sifted.add((i, p, n))", "sifted.add((i, n))")))(gens)


def short_sighted_word_girth(gens, bound):
    """_certify_word_girth over certify_girth with its distance bound off by
    one: walks of floor(bound/2) steps, not ceil(bound/2), so at an odd bound
    a cycle of length bound is never closed."""
    return mutant(girth.certify_girth, (("range((bound + 1) // 2)", "range(bound // 2)"),),
                  girth._certify_word_girth)(gens, bound)


_table_from_json = quasiaction._table_from_json  # as imported: a test patches in the copy


def table_from_json_trusting_fingerprints(s, i):
    """The slot loader with one fault: two rows whose fingerprints meet are
    taken as a repeat without comparing the rows."""
    edit = ("if np.array_equal(packed[r], packed[j]):", "if True:")
    return mutant(_table_from_json, (edit,))(s, i)


def strict_is_similar(defect, epsilon):
    """Defect.is_similar with < in place of <=: exactly epsilon*n
    disagreements are taken as not similar."""
    edit = ("epsilon.denominator <= epsilon", "epsilon.denominator < epsilon")
    return mutant(finmap.Defect.is_similar, (edit,))(defect, epsilon)
