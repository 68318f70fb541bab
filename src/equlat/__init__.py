"""equlat: computable fragments of the lattice of equivalence relations on
the naturals.

Four representations, ordered by how much of the relation they materialize:

* ``Partition`` / ``SmallEq`` -- explicit relations on a finite universe,
  with the full lattice algebra (meet, join, order, complements, atoms).
* ``AutomaticEq`` -- relations whose pair language is regular, certified by
  exact automaton checks; closed under meet and join, both constructive.
* ``DeciderEq`` -- relations given as total decision procedures, with a
  meet combinator, a bounded join search and complement construction.
* ``TmSpec`` machinery -- a machine interpreter feeding the clocked one-step
  relation and the bounded shadow of the halting problem.
"""

from .partition import (
    Atom,
    InvalidPartition,
    InvalidUniverse,
    NotSingular,
    Partition,
    SmallEq,
    UniverseMismatch,
    all_partitions,
    random_partition,
    singular_complement_valid,
)
from .dfa import Dfa, Nfa, binary, dfa_from_text, dfa_to_text, minimize, pair_word
from .automatic import (
    AutomaticEq,
    ValidationError,
    admission_checks,
    check_format,
    check_reflexive,
    check_symmetric,
    check_transitive,
    corpus,
    family_meet_demo,
    kernel_relation,
    singleton_family,
)
from .decider import (
    DeciderEq,
    NotAnEquivalence,
    NotWithinBounds,
    RelatedWitness,
    bounded_join,
    bottom_decider,
    from_partition,
    least_element_complement,
    meet_combinator,
    parity_decider,
    singular_from_predicate,
    top_decider,
    verify_chain,
)
from .tm import (
    Configuration,
    HaltsInSteps,
    MachineError,
    NoHaltWithinBound,
    TmSpec,
    approx_even,
    approx_odd,
    clocked_step,
    decode_config,
    encode_config,
    encode_tm,
    decode_tm,
    halt_step,
    halting_probe,
    init_config,
    nonhalt_eq,
    nonhalt_family_meet,
    pack_point,
    step,
    tm_from_text,
    tm_to_text,
    trajectory,
    unpack_point,
    zoo,
)
from .constructions import (
    SingularFamilySpec,
    atoms_to_singular,
    closed_form_meet,
    default_cuts,
    family_member,
    star_atoms,
    truncated_family_meet,
)

__version__ = "0.1.0"
