"""Versioned checkpoints: all parameter arrays plus a JSON metadata entry.

The container is a single npz archive. Array keys are "<component>/<param>";
"__meta__" holds a JSON string with the format version, per-component
architecture info, and whatever lineage the caller attaches (seed, config
hash, data split). Writes are atomic.
"""

import io
import json
import zipfile
from dataclasses import asdict

import numpy as np

from .config import config_from_dict
from .errors import ConfigError, ShapeMismatchError
from .ioutil import atomic_write_bytes
from .nn.model import GINConfig, GINParams, MLPParams, TaskHeadParams
from .nn.tensor import Tensor
from .prompt import PromptParams, PromptTuneConfig

FORMAT_VERSION = 1


def save_checkpoint(path, components, meta=None):
    """components: {tag: {param_name: Tensor-or-array}}; meta: JSON-able dict."""
    arrays = {}
    for tag, named in components.items():
        for name, value in named.items():
            data = value.data if hasattr(value, "data") else np.asarray(value)
            arrays[f"{tag}/{name}"] = np.asarray(data, dtype=np.float64)
    full_meta = {"format_version": FORMAT_VERSION}
    full_meta.update(meta or {})
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(full_meta, sort_keys=True)), **arrays)
    atomic_write_bytes(path, buf.getvalue())


# what reading a file that is not a save_checkpoint archive raises
_UNREADABLE = (ValueError, KeyError, TypeError, AttributeError, EOFError,
               RecursionError, zipfile.BadZipFile)


def load_checkpoint(path):
    """Returns ({tag: {param_name: ndarray}}, meta dict).

    Each array is the one ``np.load`` read for its key: writable, finite,
    float64 as ``save_checkpoint`` writes it, and shared with no other array.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["__meta__"][()]))
            components = {}
            for key in npz.files:
                if key == "__meta__":
                    continue
                tag, name = key.split("/", 1)
                array = npz[key]
                if array.dtype != np.float64:
                    raise ConfigError(f"{path}: {key} is {array.dtype}, not float64")
                if not np.isfinite(array).all():
                    raise ConfigError(f"{path}: {key} holds a NaN or infinite value")
                components.setdefault(tag, {})[name] = array
        version = meta.get("format_version")
    except _UNREADABLE as exc:
        raise ConfigError(f"{path}: not a checkpoint ({type(exc).__name__}: {exc})") from None
    if version != FORMAT_VERSION:
        raise ConfigError(f"checkpoint format {version!r} not supported")
    return components, meta


def _expecting(shape):
    """A tensor of ``shape`` for _fill to set: a view of one zero, allocating nothing."""
    return Tensor(np.broadcast_to(0.0, shape), requires_grad=True)


def _mlp(dims):
    """An MLPParams of the given widths, its arrays left for _fill to set."""
    return MLPParams([_expecting(shape) for shape in zip(dims[:-1], dims[1:])],
                     [_expecting((width,)) for width in dims[1:]])


def _fill(named, arrays, tag):
    """Point each tensor at its stored array, as load_checkpoint returned it
    (no copy is made); the stored shape must be the tensor's."""
    for name, tensor in named.items():
        if name not in arrays:
            raise ConfigError(f"checkpoint missing {tag}/{name}")
        if arrays[name].shape != tensor.data.shape:
            raise ShapeMismatchError(
                f"{tag}/{name}: stored shape {arrays[name].shape} != "
                f"expected {tensor.data.shape}"
            )
        tensor.data = arrays[name]


def _checked(path, what, settings, base):
    """``base`` with ``settings`` replaced, typed and checked as in a run config."""
    try:
        return config_from_dict(settings, base)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {what}: {exc}") from None


def save_models(path, gin, head, prompts=None, meta=None):
    """Persist encoder + head and any prompts, tagged by role."""
    components = {"gin": gin.named(), "head": head.named()}
    arch = {
        "gin_config": asdict(gin.config),
        "head_hidden": head.mlp.dims[1],
        "prompts": {},
    }
    for tag, prompt in (prompts or {}).items():
        components[tag] = prompt.named(tag)
        arch["prompts"][tag] = {
            "mlp_hidden": prompt.mlp.dims[1],
            "heads": prompt.heads,
            "multi_head": prompt.multi_head,
            "dropout": prompt.dropout,
        }
    full = dict(meta or {})
    full["arch"] = arch
    save_checkpoint(path, components, full)


def load_models(path):
    """Rebuild (gin, head, prompts, meta) from a save_models checkpoint.

    The encoder's and each prompt's settings must pass the checks of
    ``GINConfig`` and ``PromptTuneConfig``. The parameters are the checkpoint's
    arrays themselves, with the requires_grad flags a fresh ``init`` gives.
    """
    components, meta = load_checkpoint(path)
    try:
        arch = meta["arch"]
        config = _checked(path, "gin_config", arch["gin_config"], GINConfig())
        stored = components["gin"]
        if config.num_layers > len(stored):  # each layer stores arrays of its own
            raise ConfigError(f"{path}: {config.num_layers} encoder layers, {len(stored)} arrays")
        gin = GINParams(config, [_expecting(()) for _ in range(config.num_layers)],
                        [_mlp(dims) for dims in config.layer_dims()])
        _fill(gin.named(), stored, "gin")
        head = TaskHeadParams(_mlp((config.input_dim, arch["head_hidden"], 1)))
        _fill(head.named(), components["head"], "head")
        prompts = {}
        for tag, pcfg in arch["prompts"].items():
            _checked(path, f"prompt {tag!r}", pcfg, PromptTuneConfig())
            if pcfg["heads"] > config.input_dim:  # the heads split the input dimensions
                raise ConfigError(f"{path}: prompt {tag!r}: {pcfg['heads']} heads for "
                                  f"{config.input_dim} input dimensions")
            hidden = pcfg["mlp_hidden"]
            prompt = PromptParams(
                _mlp((config.input_dim, hidden, hidden, config.input_dim)),
                heads=pcfg["heads"], multi_head=pcfg["multi_head"],
                dropout=pcfg["dropout"],
            )
            _fill(prompt.named(tag), components[tag], tag)
            prompts[tag] = prompt
    except _UNREADABLE as exc:
        raise ConfigError(
            f"{path}: bad model checkpoint ({type(exc).__name__}: {exc})") from None
    return gin, head, prompts, meta
