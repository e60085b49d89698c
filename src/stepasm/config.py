"""Run configuration: schema-validated nested dataclasses + stable hashing."""

import dataclasses
import hashlib
import json
import numbers
import sys
from dataclasses import dataclass, field

from .datagen import CHAIN_COUNT_RANGE
from .embeddings import EMBED_DIM
from .errors import ConfigError
from .meta import MetaConfig, MetaStageConfig
from .nn.model import GINConfig
from .pretrain import PretrainConfig
from .prompt import PromptTuneConfig
from .training import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    counts: dict = field(default_factory=lambda: {3: 40, 4: 40, 5: 40})
    samples_per_multimer: int = 16
    starts: int = 1

    def __post_init__(self):
        if not self.counts:
            raise ConfigError("multimer counts must name at least one chain count")
        bad = [v for v in self.counts.values()
               if isinstance(v, bool) or not isinstance(v, numbers.Integral)]
        if bad:
            raise ConfigError(f"multimer counts must be integers, got {bad[0]!r}")
        object.__setattr__(
            self, "counts", {int(k): int(v) for k, v in self.counts.items()}
        )
        if any(v < 1 for v in self.counts.values()):
            raise ConfigError("multimer counts must be positive")
        lo, hi = CHAIN_COUNT_RANGE
        if any(not lo <= k <= hi for k in self.counts):
            raise ConfigError(f"chain counts must lie in {lo}..{hi}, got {sorted(self.counts)}")
        if self.samples_per_multimer < 1 or self.starts < 1:
            raise ConfigError("samples_per_multimer and starts must be positive")


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = GINConfig.hidden_dim
    head_hidden: int = PretrainConfig.head_hidden
    num_layers: int = GINConfig.num_layers
    dropout: float = GINConfig.dropout


@dataclass(frozen=True)
class PromptStageConfig(TrainConfig):
    lr: float = PromptTuneConfig.train.lr
    loss: str = PromptTuneConfig.train.loss
    mlp_hidden: int = PromptTuneConfig.mlp_hidden
    heads: int = PromptTuneConfig.heads
    multi_head: bool = PromptTuneConfig.multi_head


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: TrainConfig = PretrainConfig.train
    prompt: PromptStageConfig = field(default_factory=PromptStageConfig)
    meta: MetaStageConfig = field(default_factory=MetaStageConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.prompt.heads > EMBED_DIM:  # the heads split the chain-embedding dimensions
            raise ValueError(f"prompt.heads must be at most {EMBED_DIM}, got {self.prompt.heads}")
        # the library configs check their own values; building them here makes
        # a value they reject fail when the run config loads, not mid-run
        self.pretrain_config()
        self.prompt_config()
        self.meta_config()

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


def _check_type(f, value, where):
    """JSON value against a field's annotation; an int is a valid float if a
    float can hold it."""
    expected = (int, float) if f.type is float else f.type
    if not isinstance(value, expected) or isinstance(value, bool) and f.type is not bool:
        raise ConfigError(f"{where}.{f.name}: expected {f.type.__name__}, got {value!r}")
    if f.type is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{where}.{f.name}: an integer beyond the float range")


def _from_dict(base, data, path):
    """``base`` with the keys of ``data`` replaced; omitted keys keep its values."""
    where = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    known = {f.name: f for f in dataclasses.fields(base)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(known)}"
        )
    kwargs = {}
    for name, value in data.items():
        section = getattr(base, name)
        if dataclasses.is_dataclass(section):
            value = _from_dict(section, value, f"{path}.{name}" if path else name)
        else:
            _check_type(known[name], value, where)
        kwargs[name] = value
    try:
        return dataclasses.replace(base, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data, base=None):
    """Run config from a JSON mapping; sections and keys it omits keep the
    values of ``base`` (the defaults when None)."""
    return _from_dict(base or RunConfig(), data, "")


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)


def load_config(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    # the ValueErrors: bytes that are not UTF-8, bad JSON, and an integer of
    # more digits than Python converts; RecursionError: nesting deeper than
    # the stack
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(data)


def config_hash(cfg):
    canon = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()
