// Save/load of module parameters as a simple self-describing text format:
//   carol-params v1
//   <count>
//   <name> <rows> <cols>
//   <row-major doubles...>
// Used to persist the offline-trained GON between the trace-generation and
// evaluation phases of the bench harness.
#ifndef CAROL_NN_SERIALIZE_H_
#define CAROL_NN_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "nn/layers.h"

namespace carol::nn {

// Writes all parameters of `module` to `path`.
// Throws std::runtime_error on IO failure.
void SaveParameters(Module& module, const std::string& path);

// Loads parameters into `module`. Names, order and shapes must match what
// SaveParameters wrote, and every value must be finite; throws
// std::runtime_error (naming the parameter) otherwise. Loading is
// all-or-nothing: the file is parsed and checked in full before any
// weight is written, so a failed load leaves the module unchanged. The
// finiteness check is what the nn kernels' zero skips rely on
// (src/nn/README.md).
void LoadParameters(Module& module, const std::string& path);

// Binary parameter checkpoints ("carol-params-bin" v1): doubles are
// written as raw IEEE-754 bit patterns, so Save -> Load round-trips are
// bit-exact — the property the serving layer's snapshot/restore
// bit-identity guarantee rests on (the text format above goes through
// decimal and is only exact to 17 significant digits). Same strict
// name/order/shape matching, finiteness check and all-or-nothing
// loading as the text loader; the reader throws common::BinaryFormatError
// on foreign, truncated or non-finite input.
void SaveParametersBinary(Module& module, std::ostream& out);
void LoadParametersBinary(Module& module, std::istream& in);

// In-memory weight clone between two architecturally identical modules
// (same parameter names, order and shapes); throws std::runtime_error on
// any mismatch. The serving layer uses this to broadcast master weights
// into per-worker GON replicas without touching disk.
void CopyParameters(Module& from, Module& to);

}  // namespace carol::nn

#endif  // CAROL_NN_SERIALIZE_H_
