#pragma once
// ARFF (Weka) export. The paper ran Weka's J48; exporting the extracted
// feature dataset as ARFF lets anyone re-run the original tool on our data.

#include <filesystem>
#include <iosfwd>
#include <string>

#include "src/ml/dataset.h"

namespace digg::ml {

/// Writes the dataset in ARFF format: every attribute as NUMERIC, the class
/// as the final nominal attribute named "class". Missing values are written
/// as '?'. Values carry max_digits10 significant digits, so Weka reads back
/// the exact doubles; the stream's precision is restored afterwards.
void write_arff(const Dataset& data, const std::string& relation,
                std::ostream& os);

/// Convenience: writes to a file. Throws std::runtime_error on I/O failure.
void save_arff(const Dataset& data, const std::string& relation,
               const std::filesystem::path& path);

}  // namespace digg::ml
