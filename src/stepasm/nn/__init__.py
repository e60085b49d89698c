"""Reverse-mode autodiff tensors, the GIN encoder and task head, and Adam."""
