#include "gpufft/tuning.h"

#include <algorithm>

namespace repro::gpufft {

const char* twiddle_source_name(TwiddleSource t) {
  switch (t) {
    case TwiddleSource::Registers: return "registers";
    case TwiddleSource::Constant: return "constant";
    case TwiddleSource::Texture: return "texture";
    default: return "recompute";
  }
}

bool parse_twiddle_source(const std::string& s, TwiddleSource& out) {
  if (s == "registers") {
    out = TwiddleSource::Registers;
  } else if (s == "constant") {
    out = TwiddleSource::Constant;
  } else if (s == "texture") {
    out = TwiddleSource::Texture;
  } else if (s == "recompute") {
    out = TwiddleSource::Recompute;
  } else {
    return false;
  }
  return true;
}

bool parse_fields(const std::string& s,
                  std::span<const std::string_view> keys,
                  std::vector<std::string>& values) {
  values.assign(keys.size(), std::string());
  std::vector<bool> seen(keys.size(), false);
  std::size_t pos = 0;
  while (pos < s.size()) {
    while (pos < s.size() && s[pos] == ' ') ++pos;
    const std::size_t end = s.find(' ', pos);
    const std::string tok =
        s.substr(pos, end == std::string::npos ? std::string::npos
                                               : end - pos);
    pos = end == std::string::npos ? s.size() : end + 1;
    if (tok.empty()) continue;
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) return false;
    const auto key = std::find(keys.begin(), keys.end(),
                               std::string_view(tok).substr(0, eq));
    if (key == keys.end()) return false;
    const auto i = static_cast<std::size_t>(key - keys.begin());
    if (seen[i]) return false;
    seen[i] = true;
    values[i] = tok.substr(eq + 1);
  }
  return std::find(seen.begin(), seen.end(), false) == seen.end();
}

bool parse_tune_config(const std::string& s, TuneConfig& out) {
  static constexpr std::string_view kKeys[] = {
      "ctw", "ftw", "grid", "bps", "tpb", "radix", "pad", "slab", "pitch"};
  std::vector<std::string> v;
  if (!parse_fields(s, kKeys, v)) return false;
  TuneConfig cfg;
  if (!parse_twiddle_source(v[0], cfg.coarse_twiddles) ||
      !parse_twiddle_source(v[1], cfg.fine_twiddles) ||
      !parse_decimal(v[2], cfg.grid_blocks) ||
      !parse_decimal(v[3], cfg.blocks_per_sm) ||
      !parse_decimal(v[4], cfg.threads_per_block) ||
      !parse_decimal(v[5], cfg.coarse_radix) ||
      !parse_decimal(v[6], cfg.shmem_pad_words) ||
      !parse_decimal(v[7], cfg.slab_depth)) {
    return false;
  }
  if (v[8] == pitch_mode_name(PitchMode::Dense)) {
    cfg.pitch = PitchMode::Dense;
  } else if (v[8] == pitch_mode_name(PitchMode::Padded)) {
    cfg.pitch = PitchMode::Padded;
  } else {
    return false;
  }
  out = cfg;
  return true;
}

std::string TuneConfig::to_string() const {
  std::string s;
  s += "ctw=";
  s += twiddle_source_name(coarse_twiddles);
  s += " ftw=";
  s += twiddle_source_name(fine_twiddles);
  s += " grid=" + std::to_string(grid_blocks);
  s += " bps=" + std::to_string(blocks_per_sm);
  s += " tpb=" + std::to_string(threads_per_block);
  s += " radix=" + std::to_string(coarse_radix);
  s += " pad=" + std::to_string(shmem_pad_words);
  s += " slab=" + std::to_string(slab_depth);
  s += " pitch=";
  s += pitch_mode_name(pitch);
  return s;
}

}  // namespace repro::gpufft
