import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def reachable_states():
    """The nine catalogue models, the state of every chamber of their fans,
    and the component swap of each, keyed by a readable label."""
    from degen_atlas.chamber_walk import lift_fan
    from degen_atlas.surface_pair import catalogue_ids, catalogue_model, flop_all
    from oracles import swap_components

    states = {}
    for mid in catalogue_ids():
        m = catalogue_model(mid)
        for chamber in lift_fan(m).chambers:
            state = flop_all(m, chamber.flops)
            label = f"{mid}+{','.join(chamber.flops)}" if chamber.flops else mid
            states[label] = state
            states[label + ":swapped"] = swap_components(state)
    return states
