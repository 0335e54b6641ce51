#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <vector>

#include "common/binio.h"

namespace carol::nn {

namespace {

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

// Writes staged values into the module's parameters; the caller has
// checked every name, shape and value first.
void Commit(const std::vector<Parameter*>& params,
            const std::vector<std::vector<double>>& staged) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(),
              params[i]->value.flat().begin());
  }
}

}  // namespace

void SaveParameters(Module& module, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SaveParameters: cannot open " + path);
  const auto params = module.Parameters();
  out << "carol-params v1\n" << params.size() << "\n";
  out << std::setprecision(17);
  for (const Parameter* p : params) {
    out << p->name << ' ' << p->value.rows() << ' ' << p->value.cols()
        << '\n';
    for (double v : p->value.flat()) out << v << ' ';
    out << '\n';
  }
  if (!out) throw std::runtime_error("SaveParameters: write failed");
}

void LoadParameters(Module& module, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("LoadParameters: cannot open " + path);
  std::string magic, version;
  in >> magic >> version;
  if (magic != "carol-params" || version != "v1") {
    throw std::runtime_error("LoadParameters: bad header in " + path);
  }
  std::size_t count = 0;
  in >> count;
  const auto params = module.Parameters();
  if (count != params.size()) {
    throw std::runtime_error("LoadParameters: parameter count mismatch");
  }
  // The whole file is parsed and checked before any weight changes, so a
  // bad file leaves the module exactly as it was.
  std::vector<std::vector<double>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Parameter* p = params[i];
    std::string name;
    std::size_t rows = 0, cols = 0;
    in >> name >> rows >> cols;
    if (!in || name != p->name || rows != p->value.rows() ||
        cols != p->value.cols()) {
      throw std::runtime_error("LoadParameters: mismatch at " + p->name);
    }
    staged[i].resize(p->value.size());
    for (double& v : staged[i]) in >> v;
    if (!in) {
      throw std::runtime_error("LoadParameters: truncated file at " +
                               p->name);
    }
    if (!AllFinite(staged[i])) {
      throw std::runtime_error("LoadParameters: non-finite value in " +
                               p->name);
    }
  }
  Commit(params, staged);
}

void SaveParametersBinary(Module& module, std::ostream& out) {
  common::BinaryWriter w(out);
  const auto params = module.Parameters();
  w.Header("carol-params-bin", 1);
  w.U64(params.size());
  for (const Parameter* p : params) {
    w.String(p->name);
    w.U64(p->value.rows());
    w.U64(p->value.cols());
    w.Doubles(p->value.flat());
  }
  w.CheckOk("SaveParametersBinary");
}

void LoadParametersBinary(Module& module, std::istream& in) {
  common::BinaryReader r(in);
  r.Header("carol-params-bin", 1);
  const auto params = module.Parameters();
  const std::uint64_t count = r.U64();
  if (count != params.size()) {
    throw common::BinaryFormatError(
        "LoadParametersBinary: parameter count mismatch");
  }
  // Staged and checked in full before any weight changes (see
  // LoadParameters).
  std::vector<std::vector<double>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Parameter* p = params[i];
    const std::string name = r.String();
    const std::uint64_t rows = r.U64();
    const std::uint64_t cols = r.U64();
    if (name != p->name || rows != p->value.rows() ||
        cols != p->value.cols()) {
      throw common::BinaryFormatError("LoadParametersBinary: mismatch at " +
                                      p->name);
    }
    staged[i] = r.Doubles();
    if (staged[i].size() != p->value.size()) {
      throw common::BinaryFormatError(
          "LoadParametersBinary: element count mismatch at " + p->name);
    }
    if (!AllFinite(staged[i])) {
      throw common::BinaryFormatError(
          "LoadParametersBinary: non-finite value in " + p->name);
    }
  }
  Commit(params, staged);
}

void CopyParameters(Module& from, Module& to) {
  const auto src = from.Parameters();
  auto dst = to.Parameters();
  if (src.size() != dst.size()) {
    throw std::runtime_error("CopyParameters: parameter count mismatch");
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i]->name != dst[i]->name ||
        src[i]->value.rows() != dst[i]->value.rows() ||
        src[i]->value.cols() != dst[i]->value.cols()) {
      throw std::runtime_error("CopyParameters: mismatch at " +
                               dst[i]->name);
    }
    dst[i]->value.CopyFrom(src[i]->value);
  }
}

}  // namespace carol::nn
