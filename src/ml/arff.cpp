#include "src/ml/arff.h"

#include <fstream>
#include <limits>
#include <stdexcept>

namespace digg::ml {

void write_arff(const Dataset& data, const std::string& relation,
                std::ostream& os) {
  os << "@RELATION " << relation << "\n\n";
  for (const std::string& name : data.attributes())
    os << "@ATTRIBUTE " << name << " NUMERIC\n";
  os << "@ATTRIBUTE class {";
  for (std::size_t k = 0; k < data.class_names().size(); ++k) {
    if (k) os << ",";
    os << data.class_names()[k];
  }
  os << "}\n\n@DATA\n";
  const std::streamsize saved =
      os.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t a = 0; a < data.attribute_count(); ++a) {
      const double v = data.value(i, a);
      if (is_missing(v)) {
        os << "?";
      } else {
        os << v;
      }
      os << ",";
    }
    os << data.class_names()[data.label(i)] << "\n";
  }
  os.precision(saved);
}

void save_arff(const Dataset& data, const std::string& relation,
               const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_arff: cannot write " + path.string());
  write_arff(data, relation, out);
}

}  // namespace digg::ml
