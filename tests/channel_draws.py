"""Channels for tests: a link drawn and realised in one go, and the channels
of one episode of a run, rebuilt on their own."""

import numpy as np

from beampower.channel import ChannelModel, draw_link_fading, link_set, realize_channel
from beampower.config import NetworkConfig
from beampower.geometry import BsSite
from beampower.sim import TwoCellEnv


def sample_channel(model: ChannelModel, site: BsSite, ue_x: float, ue_y: float,
                   m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one link's fading from ``rng`` and realise its (M,) channel at
    (ue_x, ue_y)."""
    links = link_set(model, [draw_link_fading(model, rng)], [site], m)
    return realize_channel(links, [(ue_x, ue_y)])[0]


def replay_episode_channels(config: NetworkConfig, m: int, seed: int,
                            episode_index: int) -> list:
    """Reconstruct the channel sets of one episode of a (config, seed) run.

    Positions, walk, and fading are engine-independent functions of
    (config, m, seed, episode), so this reproduces exactly what any engine
    saw during that episode.
    """
    env = TwoCellEnv(config, m, seed)
    env.begin_episode(episode_index)
    return [env.channels(k) for k in range(env.t_steps)]
