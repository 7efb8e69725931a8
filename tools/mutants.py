"""A mutation suite for msslab's fast paths.

Each mutant names a source file, an exact snippet of it, the snippet's
replacement and the tests that must kill it. The suite copies the
repository to a temporary directory once, checks that the named tests
pass there unmutated, then applies each mutant in turn to the copy and
runs only its tests. The checkout is never written.

    python3 tools/mutants.py

It exits 1 when a mutant survives (its tests pass), when a snippet does
not occur exactly once in its file, or when the tests cannot run. A
survivor is mended by a test that kills it, never by dropping the
mutant; a refactor that moves a snippet updates the mutant. See DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer 11(4)
(1978).

Standard library only; the tests need the package's test extra.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_run")
# Hypothesis draws from a fixed seed, so a kill does not depend on the run.
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


KERNELS = "src/msslab/kernels.py"
PAPER_CUBE = "tests/test_delta.py::test_cube_matches_the_sweep_on_the_paper_deltas"
PAPER_TRANS1 = "tests/test_delta.py::test_trans1_kernel_matches_the_sweep_on_the_paper_deltas"
FIVE_ELEMENT_TRANS1 = "tests/test_delta.py::test_trans1_is_exhaustive_at_five_elements"
TWO_ELEMENT_ORACLE = "tests/test_search.py::test_verify_matches_oracle_on_all_two_element_structures"
SEARCH = "src/msslab/search.py"
GRANULES = "src/msslab/granules.py"
CLOSURE = "tests/test_granules.py::test_closure_matches_the_fixpoint_on_every_relation_of_three_elements"
STRUCTURE = "src/msslab/structure.py"
DELTA = "src/msslab/delta.py"
# The malformed config case that a config check refuses, run through validate.
MALFORMED = "tests/test_cli.py::test_malformed_configs_are_parse_errors_naming_the_field[{}-validate]"
COLUMN_MASKS = "tests/test_search.py::test_column_masks_match_the_predecessor_granulation"
CLASS_EXTRAS = "tests/test_structure.py::test_a_law_a_class_adds_changes_only_that_class"
VALIDATION = "src/msslab/validation.py"
NO_KAPPA = "tests/test_cli.py::test_a_reduct_that_drops_kappa_defers_every_validation_row[{}]"
REPLACED_GRANULATION = "tests/test_structure.py::test_replacing_the_granulation_binds_l_u_and_gamma"
GRANULATION_REDUCT = (
    "tests/test_structure.py::test_a_reduct_keeps_the_granulation_while_it_keeps_l_u_or_gamma[{}]"
)
REPORT = "src/msslab/report.py"
CONFIG = "src/msslab/config.py"
BASE_AND_FRESH_DELTA = "tests/test_values.py::test_a_config_holds_its_base_and_builds_each_delta_afresh"
LCLU_PAST_THE_BUDGET = "tests/test_structure.py::test_lclu_is_decided_on_kappa_past_the_sample_budget"
TABLE_WALK = "tests/test_delta.py::test_table_walk_matches_the_sweep_on_partial_sums"
FOREIGN_VALUE = "tests/test_structure.py::test_a_value_over_another_universe_is_refused[{}]"
FOREIGN_KAPPA = "tests/test_structure.py::test_a_kappa_outside_the_universe_is_refused[{}]"
WITNESSLESS = "tests/test_cli.py::test_replay_exits_2_on_a_failing_row_without_a_witness"
THEOREMS_ONCE = "tests/test_search.py::test_theorems_decided_once_match_the_plain_loop"
UNLISTED_KAPPA = "tests/test_structure.py::test_a_kappa_that_is_no_tuple_or_list_is_refused[{}]"

MUTANTS = (
    Mutant(
        "highest-c",
        KERNELS,
        "            low = mask & -mask\n",
        "            low = 1 << mask.bit_length() - 1\n",
        (PAPER_CUBE,),
    ),
    Mutant(
        "planes-in-reverse",
        KERNELS,
        "    for a in range(top):\n        live, bad = cells(a)\n",
        "    for a in reversed(range(top)):\n        live, bad = cells(a)\n",
        (PAPER_CUBE,),
    ),
    Mutant(
        "trans1-last-e",
        KERNELS,
        "first += (next(e for e, row in enumerate(plane(a)[0]) if row & pair == pair),)",
        "first += (max(e for e, row in enumerate(plane(a)[0]) if row & pair == pair),)",
        (PAPER_TRANS1,),
    ),
    Mutant(
        "fixed-break-before-substantive",
        KERNELS,
        "        if any(live):\n"
        "            substantive = True\n"
        "            if fixed:\n"
        "                break\n",
        "        if fixed:\n"
        "            break\n"
        "        if any(live):\n"
        "            substantive = True\n",
        (PAPER_CUBE,),
    ),
    # The AND of the diagonals cannot see a missing bit 0, so i-coh skips
    # every violation at a = ∅.
    Mutant(
        "i-coh-common-blind-to-a-bit",
        KERNELS,
        "            common &= row\n",
        "            common &= row | 1\n",
        (PAPER_CUBE,),
    ),
    Mutant(
        "delta-sum2-squares-c",
        KERNELS,
        "(bb := s(b, b))",
        "(bb := s(c, c))",
        (PAPER_CUBE,),
    ),
    Mutant(
        "omega-asso-strong-equality",
        KERNELS,
        "return left is None or right is None or left == right",
        "return left == right",
        ("tests/test_delta.py::test_omega_asso_compares_by_conditional_equality",),
    ),
    Mutant(
        "n-coh-consequent-reads-abc",
        KERNELS,
        "lambda a, b, c: d(b, a, c) if d(a, b, c) else None",
        "lambda a, b, c: d(a, b, c) if d(a, b, c) else None",
        (PAPER_CUBE,),
    ),
    # The sum-table walks: each must visit every tuple that can violate, in canonical order.
    Mutant(
        "omega-star-com-walks-only-the-listed-pairs",
        KERNELS,
        "tuples = sorted({*pairs, *[(b, a) for a, b in pairs]})",
        "tuples = pairs",
        (TABLE_WALK,),
    ),
    Mutant(
        "omega-asso-walks-in-table-order",
        KERNELS,
        "        for a, b in pairs:\n            after.setdefault(a, []).append(b)\n",
        "        for a, b in table:\n            after.setdefault(a, []).append(b)\n",
        (TABLE_WALK,),
    ),
    Mutant(
        "omega-id-takes-the-first-bad-pair-in-dict-order",
        KERNELS,
        "tuples = [(a,) for a, b in pairs if a == b]",
        "tuples = [(a,) for a, b in table if a == b]",
        (TABLE_WALK,),
    ),
    Mutant(
        "run-seed-ignores-the-document-seed",
        "src/msslab/verdicts.py",
        "return DEFAULT_SEED if document is None else document",
        "return DEFAULT_SEED",
        (
            "tests/test_cli.py::test_library_builders_fall_back_to_the_config_seed",
            "tests/test_cli.py::test_library_search_falls_back_to_the_document_seed",
        ),
    ),
    Mutant(
        "rank-off-by-one",
        "src/msslab/verdicts.py",
        "checked = 1 + sum(",
        "checked = sum(",
        (FIVE_ELEMENT_TRANS1,),
    ),
    Mutant(
        "holds-swapped-with-vacuous",
        "src/msslab/verdicts.py",
        "(HOLDS if substantive else VACUOUS)",
        "(VACUOUS if substantive else HOLDS)",
        (FIVE_ELEMENT_TRANS1,),
    ),
    Mutant(
        "last-b",
        KERNELS,
        "b, mask = next((b, mask) for b, mask in enumerate(bad) if mask)",
        "b, mask = max((b, mask) for b, mask in enumerate(bad) if mask)",
        (PAPER_CUBE,),
    ),
    Mutant(
        "key-keeps-the-empty-column",
        SEARCH,
        "return tuple([column for shift in shifts if (column := spread >> shift & row)])",
        "return tuple([spread >> shift & row for shift in shifts])",
        ("tests/test_search.py::test_relation_candidates_are_the_predecessor_granulations",),
    ),
    # Every chunk reads the one spread table at its row's offset.
    Mutant(
        "one-table-drops-the-row-offset",
        SEARCH,
        ", low * n + y)",
        ", low * n)",
        (COLUMN_MASKS,),
    ),
    # Past n = 8 the bits this spills land in columns >= n, which are never
    # read; below it they index past the table of 2**n entries.
    Mutant(
        "one-table-last-chunk-reads-eight-bits",
        SEARCH,
        "(1 << min(8, n - low)) - 1,",
        "255,",
        (COLUMN_MASKS,),
    ),
    # Two granule sets with equal sums share a key, so one is never checked.
    Mutant(
        "colliding-granulation-key",
        SEARCH,
        "yield frozenset(masks) if keyed else None",
        "yield sum(masks) if keyed else None",
        ("tests/test_search.py::test_each_granule_set_is_verified_once",),
    ),
    Mutant(
        "memo-on-an-extensional-delta",
        SEARCH,
        "keyed = not (spec.extensional or ",
        "keyed = not (",
        ("tests/test_search.py::test_extensional_tables_are_verified_every_time",),
    ),
    # No shortcut: a forbidden theorem is checked on each candidate, after
    # the required laws.
    Mutant(
        "no-theorem-first-order",
        SEARCH,
        "    if any(LAWS[a].arity is None for a in spec.forbidden):\n        return None, _length(spec)\n",
        "",
        (
            "tests/test_search.py::test_forbidding_a_theorem_reads_no_delta_plane",
            "tests/test_search.py::test_each_granule_set_is_verified_once",
        ),
    ),
    # A forbidden theorem answers with no candidate examined.
    Mutant(
        "theorem-shortcut-examines-nothing",
        SEARCH,
        "        return None, _length(spec)\n",
        "        return None, 0\n",
        (THEOREMS_ONCE,),
    ),
    # A required theorem ends the search as a forbidden one does.
    Mutant(
        "theorem-shortcut-on-a-required-law",
        SEARCH,
        "for a in spec.forbidden):",
        "for a in spec.required + spec.forbidden):",
        (THEOREMS_ONCE,),
    ),
    # Every law checked before the first mismatch stops the search.
    Mutant(
        "eager-checks",
        SEARCH,
        "if all(getattr(check_axiom(s, a), shown) for a, shown in checks):",
        "if all([getattr(check_axiom(s, a), shown) for a, shown in checks]):",
        ("tests/test_search.py::test_a_structure_is_checked_up_to_its_first_mismatch",),
    ),
    # Every sampled relation drawn before the first table: another stream.
    Mutant(
        "bits-drawn-up-front",
        SEARCH,
        "bit_stream = (rng.randrange(total) for _ in range(length))",
        "bit_stream = [rng.randrange(total) for _ in range(length)]",
        ("tests/test_search.py::test_sampled_relations_under_extensional_tables_draw_a_pinned_stream",),
    ),
    Mutant(
        "no-parse-time-extensional-size-check",
        SEARCH,
        "if self.extensional and self.n > EXTENSIONAL_TABLE_LIMIT:",
        "if False:",
        ("tests/test_search.py::test_search_spec_validation",),
    ),
    Mutant(
        "sampled-granulation-limit-one-higher",
        SEARCH,
        "GRANULATION_SAMPLED_LIMIT = 16",
        "GRANULATION_SAMPLED_LIMIT = 17",
        ("tests/test_search.py::test_a_sampled_granulation_search_is_refused_past_sixteen_elements",),
    ),
    Mutant(
        "symmetric-after-transitive",
        GRANULES,
        "    if symmetric:\n"
        "        # Column y of the transpose holds every x whose column holds y.\n"
        "        columns = [\n"
        "            columns[y] | sum(1 << x for x, column in enumerate(columns) if column >> y & 1)\n"
        "            for y in range(n)\n"
        "        ]\n"
        "    if transitive:\n"
        "        # Warshall: after round k, every path through 0..k has its shortcut.\n"
        "        for k in range(n):\n"
        "            for x in range(n):\n"
        "                if columns[x] >> k & 1:\n"
        "                    columns[x] |= columns[k]\n",
        "    if transitive:\n"
        "        for k in range(n):\n"
        "            for x in range(n):\n"
        "                if columns[x] >> k & 1:\n"
        "                    columns[x] |= columns[k]\n"
        "    if symmetric:\n"
        "        columns = [\n"
        "            columns[y] | sum(1 << x for x, column in enumerate(columns) if column >> y & 1)\n"
        "            for y in range(n)\n"
        "        ]\n",
        (CLOSURE,),
    ),
    # Column y's own bits instead of bit y of every column: no transpose.
    Mutant(
        "transpose-reads-the-wrong-axis",
        GRANULES,
        "for x, column in enumerate(columns) if column >> y & 1)",
        "for x, column in enumerate(columns) if columns[y] >> x & 1)",
        (CLOSURE,),
    ),
    Mutant(
        "no-strict-n-coh-in-is-strict",
        STRUCTURE,
        '("is_strict", ("strict-n-coh",)),',
        '("is_strict", ()),',
        (CLASS_EXTRAS,),
    ),
    Mutant(
        "no-lclu-in-is-rough",
        STRUCTURE,
        '("is_rough", ("lclu",)),',
        '("is_rough", ()),',
        (CLASS_EXTRAS,),
    ),
    Mutant(
        "no-admissibility-in-is-gmss",
        STRUCTURE,
        '("is_gmss", ADMISSIBILITY_AXIOMS),',
        '("is_gmss", ()),',
        (CLASS_EXTRAS,),
    ),
    Mutant(
        "battery-includes-clos1",
        STRUCTURE,
        "if law.reads and law.reads <= SET_SLOTS",
        "if law.reads <= SET_SLOTS",
        ("tests/test_structure.py::test_a_law_outside_every_class_changes_no_flag",),
    ),
    Mutant(
        "gmss-without-gamma",
        STRUCTURE,
        'return flags if "gamma" in s.bound_slots() else flags._replace(is_gmss=False)',
        "return flags",
        ("tests/test_structure.py::test_a_class_holds_when_every_law_of_it_holds",),
    ),
    # A granulation binds l, u and gamma exactly where a reduct kept them.
    Mutant(
        "unset-granulation-binds-its-slots",
        STRUCTURE,
        "unset |= GRANULATION_SLOTS",
        "pass",
        (REPLACED_GRANULATION,),
    ),
    Mutant(
        "reduct-keeps-l-without-u",
        STRUCTURE,
        'if not {"l", "u"} <= self.kept:',
        "if False:",
        (GRANULATION_REDUCT.format("l"), GRANULATION_REDUCT.format("l-gamma")),
    ),
    # A value binds its slot whatever a reduct dropped.
    Mutant(
        "value-binds-a-dropped-slot",
        STRUCTURE,
        "return self.kept - unset",
        'return (self.kept | {"delta", "sum", "kappa"}) - unset',
        ("tests/test_structure.py::test_reduct_drops_and_defers",),
    ),
    # E2, uE1 and a granular sum held over any granulation: a structure mixes two.
    Mutant(
        "foreign-granulation-binds",
        STRUCTURE,
        "if value.granulation not in (None, granulation):",
        "if False:",
        ("tests/test_structure.py::test_a_delta_or_sum_over_another_granulation_is_refused",),
    ),
    # A δ or sum over another universe is held, and checked on that universe.
    Mutant(
        "foreign-universe-binds",
        STRUCTURE,
        "            if value.universe != universe:\n",
        "            if value.universe != universe and kind is Granulation:\n",
        (FOREIGN_VALUE.format("delta"), FOREIGN_VALUE.format("sum")),
    ),
    # A granulation over another universe is held and binds l, u and gamma.
    Mutant(
        "foreign-universe-granulation-binds",
        STRUCTURE,
        "            if value.universe != universe:\n",
        "            if value.universe != universe and kind is not Granulation:\n",
        (FOREIGN_VALUE.format("granulation"),),
    ),
    # _replace builds past the constructor's checks: a foreign value is held.
    Mutant(
        "make-bypasses-checks",
        STRUCTURE,
        "    @classmethod\n"
        "    def _make(cls, iterable):\n"
        "        # _replace builds through _make; route it through the checks too.\n"
        "        return cls(*iterable)\n",
        "",
        tuple(FOREIGN_VALUE.format(field) for field in ("delta", "sum", "granulation")),
    ),
    # kept taken as any iterable of any names.
    Mutant(
        "kept-unchecked",
        STRUCTURE,
        "        if not isinstance(kept, (set, frozenset, tuple, list)):\n"
        '            raise TypeError(f"kept: expected a set of slot names, got {type(kept).__name__}")\n'
        "        kept = frozenset(kept)\n"
        "        unknown = kept.difference(SIGNATURE_SLOTS)\n"
        "        if unknown:\n"
        '            raise StructureError(f"unknown signature slots {sorted(unknown)}")\n',
        "        kept = frozenset(kept)\n",
        ("tests/test_structure.py::test_kept_holds_only_signature_slot_names",),
    ),
    Mutant(
        "config-reduct-ignored",
        CONFIG,
        "base = reduct(base, reduct_keep)",
        "pass",
        ("tests/test_cli.py::test_an_empty_reduct_is_reported_as_keeping_no_slots",),
    ),
    # A reduct may keep only what has a value: a config that keeps δ is refused.
    Mutant(
        "reduct-refuses-valueless-slot",
        STRUCTURE,
        "dropped = narrowed.kept - s.kept",
        "dropped = narrowed.kept - s.bound_slots()",
        (
            "tests/test_values.py::test_a_config_reduct_is_the_structure_reduct[P-delta]",
            NO_KAPPA.format("validate"),
        ),
    ),
    # A δ candidate is its config's base, with no δ bound.
    Mutant(
        "config-structure-ignores-its-delta",
        CONFIG,
        "return self.base._replace(delta=delta_spec.build(self.universe, self.base.granulation))",
        "return self.base",
        (BASE_AND_FRESH_DELTA,),
    ),
    # Two sums that differ only in their tables compare equal.
    Mutant(
        "sum-equality-ignores-the-table",
        DELTA,
        "            and (self.universe, self.mode, self.granulation, self.table)\n"
        "            == (other.universe, other.mode, other.granulation, other.table)\n",
        "            and (self.universe, self.mode, self.granulation)\n"
        "            == (other.universe, other.mode, other.granulation)\n",
        ("tests/test_values.py::test_configs_whose_sum_tables_differ_differ",),
    ),
    # A sum table's masks taken unchecked: a row outside the universe is held and never read.
    Mutant(
        "table-masks-unchecked",
        DELTA,
        "        _check_rows(universe, [(*pair, value) for pair, value in table.items()])\n"
        "        get = table.get\n",
        "        get = table.get\n",
        tuple(
            f"tests/test_structure.py::test_table_constructors_take_masks_inside_the_universe[sum-{p}]"
            for p in ("a", "b", "sum")
        ),
    ),
    # A row of another length taken: it dies where the table is read.
    Mutant(
        "table-row-shape-unchecked",
        DELTA,
        "    if set(map(len, rows)) - {3}:\n",
        "    if False:\n",
        tuple(
            f"tests/test_structure.py::test_table_constructors_refuse_a_malformed_row[{name}]"
            for name in ("extensional", "nearness", "sum")
        ),
    ),
    # κ holds whatever masks it is given: lclu answers on a foreign mask.
    Mutant(
        "foreign-kappa-binds",
        STRUCTURE,
        "kappa = tuple([check_mask(universe, c) for c in kappa])",
        "kappa = tuple(kappa)",
        tuple(FOREIGN_KAPPA.format(name) for name in ("above", "negative", "past", "subset")),
    ),
    # Any κ is walked as masks: an int raises while walked, a set is held.
    Mutant(
        "kappa-type-unchecked",
        STRUCTURE,
        "if not isinstance(kappa, (tuple, list)):",
        "if False:",
        tuple(UNLISTED_KAPPA.format(name) for name in ("int", "set")),
    ),
    # A negative mask reads as inside the universe.
    Mutant(
        "negative-kappa-binds",
        "src/msslab/sets.py",
        "if mask < 0 or mask >> universe.size:",
        "if mask >= 1 << universe.size:",
        (FOREIGN_KAPPA.format("negative"),),
    ),
    # lclu's κ walk finds the greatest violating cluster, not the least.
    Mutant(
        "lclu-walks-kappa-in-reverse",
        STRUCTURE,
        "for a in sorted(set(s.kappa))",
        "for a in sorted(set(s.kappa), reverse=True)",
        (LCLU_PAST_THE_BUDGET,),
    ),
    # lclu over an empty κ reads as holding.
    Mutant(
        "lclu-always-substantive",
        STRUCTURE,
        "return decided(axiom, s.universe, 1, first, bool(s.kappa))",
        "return decided(axiom, s.universe, 1, first, True)",
        ("tests/test_structure.py::test_lclu_on_an_empty_kappa_is_vacuous",),
    ),
    # The oracle describes a delta that a reduct dropped.
    Mutant(
        "oracle-reads-a-dropped-delta",
        "src/msslab/oracles.py",
        'if "delta" in bound:',
        "if s.delta is not None:",
        ("tests/test_structure.py::test_the_oracle_describes_only_bound_slots",),
    ),
    Mutant(
        "lower-fill-reversed",
        GRANULES,
        "if not g & ~a:",
        "if not a & ~g:",
        ("tests/test_granules.py::test_lower_upper_examples",),
    ),
    Mutant(
        "upper-fill-outside",
        GRANULES,
        "if g & a:",
        "if g & ~a:",
        ("tests/test_granules.py::test_lower_upper_examples",),
    ),
    Mutant(
        "a-missing-law-passes",
        STRUCTURE,
        'if any(a not in verdicts or verdicts[a].status == "deferred" for a in axioms):',
        'if any(a in verdicts and verdicts[a].status == "deferred" for a in axioms):',
        (CLASS_EXTRAS,),
    ),
    # uE1 built without a granulation: neither the config nor the builtin refuses it.
    Mutant(
        "uE1-reads-no-granulation",
        DELTA,
        '"uE1": KeyedKind("⊆", _upper_of_union, True),',
        '"uE1": KeyedKind("⊆", _upper_of_union, False),',
        (
            MALFORMED.format("uE1-without-granulation"),
            "tests/test_delta.py::test_builtin_requiring_operators_without_them",
        ),
    ),
    # An R that no kind names is read as ⊋ by the mask function and as ⊊ by the planes.
    Mutant(
        "unnamed-relation-read-as-superset",
        DELTA,
        '        elif relation == "⊋":\n'
        "            self._masked = lambda a, b, c: (kb := key(a, b)) != (kc := key(a, c)) and not kc & ~kb\n"
        "        else:\n"
        '            raise ConfigurationError(f"unknown relation {relation!r}; expected one of ⊆, ⊊, ⊋")\n',
        "        else:\n"
        "            self._masked = lambda a, b, c: (kb := key(a, b)) != (kc := key(a, c)) and not kc & ~kb\n",
        ("tests/test_delta.py::test_a_keyed_predicate_under_an_unnamed_relation_is_refused",),
    ),
    # A refused walk builds the universe of its n names before it refuses.
    Mutant(
        "refused-search-builds-its-universe-first",
        SEARCH,
        "    length = _length(spec)\n    n = spec.n\n    universe = _universe(n)\n",
        "    n = spec.n\n    universe = _universe(n)\n    length = _length(spec)\n",
        ("tests/test_search.py::test_a_refused_search_allocates_nothing_first[enumerate]",),
    ),
    # A document's unknown field read as absent: a misspelt field falls back to its default.
    Mutant(
        "unknown-fields-read",
        "src/msslab/errors.py",
        "    if unknown:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_every_document_is_refused_by_the_same_reading_rule[config-unknown-field]",
            "tests/test_cli.py::test_every_document_is_refused_by_the_same_reading_rule[spec-unknown-field]",
        ),
    ),
    # A failing row without a witness passes as replayed, or as a witness that does not replay.
    Mutant(
        "witnessless-verdict-replayed",
        "src/msslab/witnesses.py",
        '        if not witnesses:\n            problems.append(f"{label}: failing verdict without witness")\n',
        '        if False:\n            problems.append(f"{label}: failing verdict without witness")\n',
        (WITNESSLESS,),
    ),
    Mutant(
        "witnessless-compatibility-row-replayed",
        "src/msslab/witnesses.py",
        '            if not witnesses:\n                problems.append(f"{label}: failing row without witness")\n',
        '            if False:\n                problems.append(f"{label}: failing row without witness")\n',
        (WITNESSLESS,),
    ),
    Mutant(
        "compatibility-witness-never-violates",
        "src/msslab/witnesses.py",
        "if s.delta.masked()(*w):",
        "if False:",
        ("tests/test_cli.py::test_replay_subcommand_exits_2_on_a_compatibility_witness_that_holds",),
    ),
    # A compatibility witness need only violate δ: a triple of no clusters replays.
    Mutant(
        "compatibility-witness-of-any-triple",
        "src/msslab/witnesses.py",
        "elif w not in triples:",
        "elif False:",
        (
            "tests/test_cli.py::"
            "test_replay_subcommand_exits_2_on_a_compatibility_witness_its_mode_does_not_check",
        ),
    ),
    # Only a failing compatibility row's delta is looked up: a passing row may name any.
    Mutant(
        "replay-checks-only-failing-deltas",
        "src/msslab/witnesses.py",
        '            declared(_expect(row, dict, f"{field}[{i}]").get("delta"), f"{field}[{i}].delta")\n',
        "",
        (
            "tests/test_cli.py::test_replay_refuses_every_undeclared_delta_naming_its_path"
            "[passing-compatibility-row]",
            "tests/test_cli.py::test_replay_refuses_every_undeclared_delta_naming_its_path"
            "[compatibility-delta-not-a-string]",
        ),
    ),
    # κ dropped from the slots a check reads: a reduct that drops κ no
    # longer defers the check, which then reads an unbound κ.
    Mutant(
        "compatibility-reads-no-kappa",
        VALIDATION,
        'COMPATIBILITY_READS = frozenset({"kappa", "delta"})',
        'COMPATIBILITY_READS = frozenset({"delta"})',
        (NO_KAPPA.format("validate"),),
    ),
    Mutant(
        "grade-reads-no-kappa",
        VALIDATION,
        'GRADE_READS = frozenset({"kappa", "l", "u"})',
        'GRADE_READS = frozenset({"l", "u"})',
        (NO_KAPPA.format("validate"),),
    ),
    Mutant(
        "no-repeated-cluster-check",
        VALIDATION,
        "if c in s.kappa[:k]:",
        "if False:",
        ("tests/test_validation.py::test_clustering_validation_errors",),
    ),
    # A clustering's grades read as holding when any cluster's do.
    Mutant(
        "clustering-grades-any",
        VALIDATION,
        "ClusterGrades(*map(all, ",
        "ClusterGrades(*map(any, ",
        (
            "tests/test_cli.py::test_reports_match_golden_bytes"
            "[validate-examples/paper-example.json-paper-validate.json]",
            "tests/test_validation.py::test_validate_clustering_aggregates",
        ),
    ),
    Mutant(
        "verdict-line-padded",
        REPORT,
        '{witness}{note}".rstrip())',
        '{witness}{note}")',
        ("tests/test_cli.py::test_text_reports_end_no_line_in_whitespace[check-axioms]",),
    ),
    Mutant(
        "validation-note-dropped",
        REPORT,
        "        _note(out, validation)\n",
        "",
        ("tests/test_cli.py::test_text_reports_print_the_validation_note[validate]",),
    ),
    # Rows in insertion order: a cluster's grades and the clustering's read differently.
    Mutant(
        "pairs-unsorted",
        REPORT,
        "sorted(row.items())",
        "row.items()",
        ("tests/test_cli.py::test_text_rows_list_their_keys_in_sorted_order[validate]",),
    ),
    # An empty granulation is falsy: read as absent, it hides its notes.
    Mutant(
        "empty-granulation-reported-absent",
        REPORT,
        '"granules": None if g is None else',
        '"granules": None if not g else',
        ("tests/test_cli.py::test_an_empty_granulation_is_reported_with_its_notes[listed]",),
    ),
    Mutant(
        "granulation-notes-unprinted",
        REPORT,
        '            out(f"  granulation note: {note}")\n',
        "            pass\n",
        ("tests/test_cli.py::test_an_empty_granulation_is_reported_with_its_notes[predecessor]",),
    ),
    Mutant(
        "no-modes-checks-overlap-closer",
        "src/msslab/config.py",
        'modes = _distinct(raw_modes, "compatibility_modes")\n',
        'modes = _distinct(raw_modes, "compatibility_modes") or modes\n',
        ("tests/test_cli.py::test_an_empty_list_of_compatibility_modes_checks_no_mode",),
    ),
    Mutant(
        "law-required-and-forbidden-searched",
        SEARCH,
        "        if both:\n",
        "        if False:\n",
        ("tests/test_search.py::test_search_spec_validation",),
    ),
    Mutant(
        "compatibility-mode-field-unindexed",
        "src/msslab/config.py",
        'f"compatibility_modes[{k}]")',
        '"compatibility_modes")',
        (MALFORMED.format("unknown-compatibility-mode"),),
    ),
    Mutant(
        "reduct-slot-field-unindexed",
        "src/msslab/config.py",
        'f"reduct[{k}]")',
        '"reduct")',
        (MALFORMED.format("unknown-reduct-slot"),),
    ),
    Mutant(
        "instance-on-an-unbound-slot",
        STRUCTURE,
        'raise StructureError(f"{axiom} reads unbound slots {sorted(unbound)}")',
        "pass",
        ("tests/test_structure.py::test_no_law_reading_an_unbound_slot_has_an_instance",),
    ),
) + tuple(
    # Each config table check dropped: the malformed case it refuses parses.
    Mutant(
        f"no-{check}-check",
        "src/msslab/config.py",
        snippet,
        "if False:",
        (MALFORMED.format(case),),
    )
    for check, snippet, case in (
        ("totality", "if total and len(first) != pairs:", "f-not-total"),
        ("second-value", "if rows[i][2] != v:", "conflicting-sum-rows"),
        ("duplicate-cluster", "if first < k:", "duplicate-cluster"),
        (
            "delta-granulation",
            "if KEYED_KINDS[entry].granular and granulation is None:",
            "uE1-without-granulation",
        ),
        ("sum-granulation", "if granulation is None:", "granular-sum-without-granulation"),
    )
) + tuple(
    # Each list's repeat check dropped: a list that repeats an entry parses.
    Mutant(
        f"no-{check}-duplicate-check",
        "src/msslab/config.py",
        f'_distinct({value}, "{field}")',
        f"tuple({value})",
        (MALFORMED.format(case),),
    )
    for check, value, field, case in (
        ("compatibility-mode", "raw_modes", "compatibility_modes", "repeated-compatibility-mode"),
        ("reduct", '_names(data["reduct"], "reduct", "slot names")', "reduct", "repeated-reduct-slot"),
    )
) + tuple(
    # One per keyed kind: its relation R swapped for another.
    Mutant(
        f"{kind}-relation-swapped",
        DELTA,
        f'"{kind}": KeyedKind("{relation}", {key}, {granular}),',
        f'"{kind}": KeyedKind("{swapped}", {key}, {granular}),',
        (test,),
    )
    for kind, relation, key, granular, swapped, test in (
        ("E0", "⊆", "_union", False, "⊊", TWO_ELEMENT_ORACLE),
        ("E1", "⊊", "_union", False, "⊆", TWO_ELEMENT_ORACLE),
        ("uE1", "⊆", "_upper_of_union", True, "⊊", TWO_ELEMENT_ORACLE),
        ("E2", "⊋", "_lower_of_meet", True, "⊊", TWO_ELEMENT_ORACLE),
        ("def0", "⊆", None, False, "⊊", "tests/test_delta.py::test_def0_with_union_map_matches_plain_inclusion"),
    )
)


def mismatches(mutants) -> list[str]:
    """A line for each mutant whose snippet its file does not hold exactly once."""
    lines = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            lines.append(f"{m.name}: snippet occurs {count} times in {m.path}")
    return lines


def run_tests(copy: Path, tests) -> subprocess.CompletedProcess:
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    path = os.pathsep.join(filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH"))))
    # No bytecode: a mutated file can keep its size and mtime.
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *PYTEST, *tests], cwd=copy, env=env, capture_output=True, text=True
    )


def main() -> int:
    problems = mismatches(MUTANTS)
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="msslab-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        clean = run_tests(copy, tests)
        if clean.returncode != 0:
            print(clean.stdout + clean.stderr)
            print("the mutants' tests do not pass on the unmutated code")
            return 1
        failures = 0
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                result = run_tests(copy, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; 0 is a survivor, and any
            # other code (a bad node id, no tests collected) is an error.
            outcome = {0: "SURVIVED", 1: "killed"}.get(result.returncode, "ERROR")
            print(f"{m.name}: {outcome}", flush=True)
            if outcome != "killed":
                failures += 1
                if outcome == "ERROR":
                    print(result.stdout + result.stderr)
        print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
