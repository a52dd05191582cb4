package nn

// BatchBlock exposes the batched pass's block size to the external
// tests, which pick batch sizes on either side of it.
const BatchBlock = batchBlock
