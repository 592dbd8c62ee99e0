"""Adaptive traffic-signal-control benchmark suite.

A self-contained pipeline: a JSON-defined road network, a deterministic
point-queue microsimulator, classic and deep-RL signal controllers that
read it only through their `SignalUnit`, a network engine whose `backward`
fills the `AdamState` buffer that `adam_step` applies, a distributed-acting
/ centralized-learning training fabric and an experiment harness for
tuning, evaluation and comparison.
"""

from .network import (Intersection, Lane, NetworkModel, NetworkParseError,
                      NetworkValidationError, Phase, load_network)
from .simulation import (DemandProfile, MoELog, Simulation, load_demand,
                         run_episode)
from .control import (HOLD, Controller, Hold, NextPhase, RewardNormalizer,
                      SignalUnit, state_width)
from .classic import (MaxPressureController, SotlController,
                      UniformController, WebsterController, webster_timings)
from .agents import (DdpgAgent, DdpgConfig, DdpgController, DqnAgent,
                     DqnConfig, DqnController, Experience, ReplayBuffer)
from .fabric import FabricConfig, TrainResult, train
from .experiments import GridSpec, compare, evaluate, tune
from .stats import BoxStats, box_stats, mean_ci95, rank_score

__version__ = "0.1.0"
