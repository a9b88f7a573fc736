"""Random channels for tests that need a link drawn and realised in one go."""

import numpy as np

from beampower.channel import (ChannelModel, draw_link_fading, link_set, prepare_link,
                               realize_channel)
from beampower.geometry import BsSite


def sample_channel(model: ChannelModel, site: BsSite, ue_x: float, ue_y: float,
                   m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one link's fading from ``rng`` and realise its (M,) channel at
    (ue_x, ue_y)."""
    link = prepare_link(model, draw_link_fading(model, rng), site, m)
    return realize_channel(link_set(model, [link], m), [(ue_x, ue_y)])[0]
