"""Run configuration: schema-validated nested dataclasses + stable hashing."""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .meta import MetaConfig
from .pretrain import PretrainConfig
from .prompt import PromptTuneConfig
from .training import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    counts: dict = field(default_factory=lambda: {3: 40, 4: 40, 5: 40})
    samples_per_multimer: int = 16
    starts: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "counts", {int(k): int(v) for k, v in self.counts.items()}
        )
        if any(v < 1 for v in self.counts.values()):
            raise ConfigError("multimer counts must be positive")


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 64
    head_hidden: int = 256
    num_layers: int = 2
    dropout: float = 0.2


@dataclass(frozen=True)
class PromptStageConfig(TrainConfig):
    lr: float = 0.001
    # cross-entropy keeps saturated-wrong probabilities trainable; an absolute
    # error goes silent there because its gradient carries the sigmoid slope
    loss: str = "bce"
    mlp_hidden: int = 1024
    heads: int = 4
    multi_head: bool = False


@dataclass(frozen=True)
class MetaStageConfig:
    inner_lr: float = 0.01
    outer_lr: float = 0.001
    task_batch: int = 4
    support_size: int = 8
    query_size: int = 8
    inner_steps: int = 1
    first_order: bool = True
    epochs: int = 40
    pool_size: int = 32
    adapt_steps: int = 1


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(lr=0.01))
    prompt: PromptStageConfig = field(default_factory=PromptStageConfig)
    meta: MetaStageConfig = field(default_factory=MetaStageConfig)

    def pretrain_config(self):
        return PretrainConfig(
            train=self.pretrain,
            hidden_dim=self.model.hidden_dim,
            head_hidden=self.model.head_hidden,
            num_layers=self.model.num_layers,
            dropout=self.model.dropout,
            seed=self.seed,
        )

    def prompt_config(self):
        return PromptTuneConfig(
            train=self.prompt,
            mlp_hidden=self.prompt.mlp_hidden,
            heads=self.prompt.heads,
            multi_head=self.prompt.multi_head,
            dropout=self.model.dropout,
            seed=self.seed,
        )

    def meta_config(self):
        return MetaConfig(**dataclasses.asdict(self.meta), seed=self.seed)


def _from_dict(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(
            f"{path or 'config'}: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(known)}"
        )
    nested = {
        "data": DataConfig, "model": ModelConfig, "pretrain": TrainConfig,
        "prompt": PromptStageConfig, "meta": MetaStageConfig,
    }
    kwargs = {}
    for name, value in data.items():
        target = nested.get(name) if cls is RunConfig else None
        if target is not None:
            kwargs[name] = _from_dict(target, value, f"{path}.{name}" if path else name)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from None


def config_from_dict(data):
    return _from_dict(RunConfig, data, "")


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)


def load_config(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(data)


def config_hash(cfg):
    canon = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()
