#include "util/flags.h"

#include <sstream>
#include <stdexcept>

namespace bufq {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag, boolean style
    }
  }
  for (const auto& [k, _] : values_) read_[k] = false;
}

std::optional<std::string> Flags::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  read_[name] = true;
  return it->second;
}

std::string Flags::get_string(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + *v + "'");
  }
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" + *v + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + *v + "'");
}

std::size_t Flags::get_count(const std::string& name, std::size_t fallback,
                             std::size_t min) const {
  const std::int64_t v = get_int(name, static_cast<std::int64_t>(fallback));
  if (v < static_cast<std::int64_t>(min)) {
    throw std::invalid_argument("flag --" + name + " must be >= " + std::to_string(min) +
                                ", got " + std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

std::optional<std::vector<double>> Flags::get_double_list(const std::string& name) const {
  const auto v = get(name);
  if (!v) return std::nullopt;
  std::vector<double> values;
  std::stringstream ss{*v};
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      values.push_back(std::stod(item));
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + name + " expects numbers, got '" + *v + "'");
    }
  }
  return values;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> result;
  for (const auto& [name, was_read] : read_) {
    if (!was_read) result.push_back(name);
  }
  return result;
}

}  // namespace bufq
