"""Two-cell downlink simulator with learned joint beamforming and power control."""

from .config import ConfigError, NetworkConfig
from .geometry import BsSite, Layout, associate, build_layout
from .channel import (BeamCodebook, ChannelModel, build_codebook, noise_power_dbm,
                      steering_vector)
from .radio import (REGISTER, CodeRateMap, JointCommand, apply_power_cmd,
                    effective_sinr_db, fpa_power_dbm, rx_power_mw, sinr_db,
                    step_beam, sum_rate)
from .agents import (PolicyState, QNetwork, QTable, ReplayBuffer, TrainingDiverged,
                     decay_epsilon, select_action, sgd_step, tabular_update)
from .oracle import BruteForceResult, SearchSpace, brute_force
from .sim import (EpisodeResult, RunResult, StepRecord, TwoCellEnv, ccdf,
                  convergence_episode, best_complete_episode, make_engine,
                  run_episode, run_experiment, sum_rate_summary, summarize_run,
                  throughput_and_frame_loss)

__version__ = "0.1.0"
